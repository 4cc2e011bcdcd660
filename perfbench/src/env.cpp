#include "env.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

extern char** environ;

namespace perfbench {

namespace {

/// The processor brand string from CPUID, without reading any file.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

}  // namespace

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int nproc() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> cold_set_ups(int reps, double span_s,
                                 const std::function<double()>& set_up) {
  std::vector<double> seconds;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    const auto due =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(span_s * r / reps));
    while (std::chrono::steady_clock::now() < due) {
    }
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t child = fork();
    if (child < 0) throw std::runtime_error("fork failed");
    if (child == 0) {
      close(fds[0]);
      int code = 1;
      try {
        const double s = set_up();
        code = write(fds[1], &s, sizeof(s)) == sizeof(s) ? 0 : 1;
      } catch (...) {
      }
      _exit(code);  // no atexit handlers, no second flush of stdout
    }
    close(fds[1]);
    double s = 0.0;
    const ssize_t got = read(fds[0], &s, sizeof(s));
    close(fds[0]);
    int status = 0;
    while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
    }
    if (got != sizeof(s) || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("set-up failed in a child process");
    seconds.push_back(s);
  }
  return seconds;
}

std::string environment_json(const std::string& git_revision) {
  std::map<std::string, std::string> omp;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("OMP_", 0) != 0 && entry.rfind("GOMP_", 0) != 0) continue;
    const auto eq = entry.find('=');
    omp[entry.substr(0, eq)] =
        eq == std::string::npos ? "" : entry.substr(eq + 1);
  }
  std::string out = "{\"nproc\": " + std::to_string(nproc());
  out += ", \"cpu_model\": " + json_string(cpu_model());
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
  out += ", \"git_revision\": " + json_string(git_revision);
  out += ", \"omp_env\": {";
  bool first = true;
  for (const auto& [key, value] : omp) {
    out += (first ? "" : ", ") + json_string(key) + ": " + json_string(value);
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
