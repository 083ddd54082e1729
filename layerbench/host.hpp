// Host stamp and process resource meters.
#pragma once

#include <string>

namespace lb {

/// First line of /proc/pressure/cpu ("some avg10=... total=..."), or
/// "unavailable" where the kernel exposes no pressure information.
std::string cpu_pressure();

/// CPU time the hypervisor took from this machine's CPUs (the "steal"
/// column of /proc/stat), in seconds; 0 where the kernel reports none.
double steal_seconds();

/// One-line JSON object: nproc, compiler, build type, HS_TRACE, the CPU
/// pressure lines taken before and after the run, and the steal time
/// during it.
std::string host_stamp_json(const std::string& workload,
                            const std::string& pressure_before,
                            const std::string& pressure_after, double steal_s);

/// User + system CPU seconds of this process (all threads).
double self_cpu_seconds();

/// User + system CPU seconds of this process's reaped children.
double children_cpu_seconds();

/// User + system CPU seconds of a live process, from /proc/<pid>/stat;
/// 0 when the process is gone.
double pid_cpu_seconds(int pid);

/// Peak resident set of this process plus that of its largest reaped
/// child, in MiB.
double peak_rss_mb();

/// A live process's resident set ("VmRSS") or its peak so far ("VmHWM")
/// from /proc/<pid>/status, in MiB; pid 0 is this process. 0 when the
/// process is gone.
double pid_rss_mb(int pid, bool peak);

}  // namespace lb
