// Environment parsers of sim/exec.hpp: DACC_SIM_BACKEND and
// DACC_SIM_PARALLEL_WORKERS. Every malformed value
// must warn once on stderr and fall back to the default — never abort and
// never select something the user did not ask for.
#include "sim/exec.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dacc::sim {
namespace {

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// set() changes (or, with nullptr, unsets) a variable for the rest of the
/// test; TearDown restores the surrounding environment, so the binary can
/// also run every test in one process.
class ExecEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    // Newest first, so the value from before the test is restored last.
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      if (it->second) {
        ::setenv(it->first.c_str(), it->second->c_str(), 1);
      } else {
        ::unsetenv(it->first.c_str());
      }
    }
  }

  void set(const char* name, const char* value) {
    const char* old = std::getenv(name);
    saved_.emplace_back(name, old != nullptr ? std::optional<std::string>(old)
                                             : std::nullopt);
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }

  /// Runs `fn` and returns what it wrote to stderr.
  template <typename F>
  static std::string stderr_of(F&& fn) {
    ::testing::internal::CaptureStderr();
    fn();
    return ::testing::internal::GetCapturedStderr();
  }

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

TEST_F(ExecEnv, UnsetBackendIsCoroutine) {
  set("DACC_SIM_BACKEND", nullptr);
  EXPECT_EQ(default_exec_backend(), ExecBackend::kCoroutine);
  EXPECT_EQ(default_parallel_shards(), 0);
}

TEST_F(ExecEnv, CoroutineBackend) {
  set("DACC_SIM_BACKEND", "coroutine");
  const std::string err = stderr_of([] {
    EXPECT_EQ(default_exec_backend(), ExecBackend::kCoroutine);
    EXPECT_EQ(default_parallel_shards(), 0);
  });
  EXPECT_EQ(err, "");
}

TEST_F(ExecEnv, ParallelBackendDefaultsToHostShards) {
  set("DACC_SIM_BACKEND", "parallel");
  const std::string err = stderr_of([] {
    EXPECT_EQ(default_exec_backend(), ExecBackend::kParallel);
    EXPECT_EQ(default_parallel_shards(), hardware_threads());
  });
  EXPECT_EQ(err, "");
}

TEST_F(ExecEnv, ParallelBackendWithShardCount) {
  set("DACC_SIM_BACKEND", "parallel:4");
  const std::string err = stderr_of([] {
    EXPECT_EQ(default_exec_backend(), ExecBackend::kParallel);
    EXPECT_EQ(default_parallel_shards(), 4);
  });
  EXPECT_EQ(err, "");
}

TEST_F(ExecEnv, MalformedShardCountWarnsAndUsesHostShards) {
  for (const char* value : {"parallel:0", "parallel:x", "parallel:4097",
                            "parallel:-2", "parallel:"}) {
    SCOPED_TRACE(value);
    set("DACC_SIM_BACKEND", value);
    const std::string err = stderr_of([] {
      EXPECT_EQ(default_exec_backend(), ExecBackend::kParallel);
      EXPECT_EQ(default_parallel_shards(), hardware_threads());
    });
    EXPECT_NE(err.find("ignoring shard count"), std::string::npos) << err;
  }
}

TEST_F(ExecEnv, UnknownBackendWarnsAndFallsBackToCoroutine) {
  for (const char* value : {"garbage", "parallelx", "", "Coroutine"}) {
    SCOPED_TRACE(value);
    set("DACC_SIM_BACKEND", value);
    const std::string err = stderr_of([] {
      EXPECT_EQ(default_exec_backend(), ExecBackend::kCoroutine);
    });
    EXPECT_NE(err.find("ignoring DACC_SIM_BACKEND"), std::string::npos)
        << err;
    EXPECT_EQ(default_parallel_shards(), 0);
  }
}

TEST_F(ExecEnv, RetiredThreadBackendWarnsAndFallsBackToCoroutine) {
  // The one-OS-thread-per-process backend is gone; scripts that still ask
  // for it get the coroutine strand and a warning naming the valid values.
  set("DACC_SIM_BACKEND", "thread");
  const std::string err = stderr_of([] {
    EXPECT_EQ(default_exec_backend(), ExecBackend::kCoroutine);
  });
  EXPECT_NE(err.find("ignoring DACC_SIM_BACKEND='thread'"), std::string::npos)
      << err;
  EXPECT_NE(err.find("'coroutine' or 'parallel[:N]'"), std::string::npos)
      << err;
}

TEST_F(ExecEnv, ParallelWorkersBounds) {
  set("DACC_SIM_PARALLEL_WORKERS", nullptr);
  EXPECT_EQ(default_parallel_workers(), hardware_threads());
  for (const auto& [value, want] :
       std::vector<std::pair<const char*, int>>{{"1", 1}, {"3", 3},
                                                {"4096", 4096}}) {
    SCOPED_TRACE(value);
    set("DACC_SIM_PARALLEL_WORKERS", value);
    const std::string err = stderr_of(
        [want = want] { EXPECT_EQ(default_parallel_workers(), want); });
    EXPECT_EQ(err, "");
  }
  for (const char* value : {"0", "4097", "-1", "x", "", "2x"}) {
    SCOPED_TRACE(value);
    set("DACC_SIM_PARALLEL_WORKERS", value);
    const std::string err = stderr_of(
        [] { EXPECT_EQ(default_parallel_workers(), hardware_threads()); });
    EXPECT_NE(err.find("ignoring DACC_SIM_PARALLEL_WORKERS"),
              std::string::npos)
        << err;
  }
}

}  // namespace
}  // namespace dacc::sim
