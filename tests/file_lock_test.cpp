// util::FileLock / util::AtomicAppend tests: cross-thread and cross-process
// mutual exclusion, reentrancy, the one-write()-per-line no-tearing
// guarantee under concurrent appender processes, torn-tail healing, and the
// process-liveness probe the fleet's same-host re-lease fast path uses.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/file_lock.hpp"
#include "util/jsonl.hpp"

namespace onebit::util {
namespace {

std::string tempPath(const std::string& stem) {
  return ::testing::TempDir() + stem + "_" + std::to_string(::getpid());
}

std::string slurp(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(FileLock, SerializesThreadsOfOneProcess) {
  const std::string path = tempPath("file_lock_threads") + ".lock";
  std::remove(path.c_str());
  FileLock lock(path);
  ASSERT_TRUE(lock.ok());

  // The critical section asserts it is never entered concurrently.
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::size_t total = 0;
  auto worker = [&] {
    for (int i = 0; i < 200; ++i) {
      std::lock_guard<FileLock> guard(lock);
      if (inside.fetch_add(1) != 0) overlapped = true;
      ++total;  // unsynchronized on purpose: the lock must protect it
      inside.fetch_sub(1);
    }
  };
  std::thread a(worker), b(worker), c(worker);
  a.join();
  b.join();
  c.join();
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(total, 600u);
  std::remove(path.c_str());
}

TEST(FileLock, IsReentrantWithinAThread) {
  const std::string path = tempPath("file_lock_reentrant") + ".lock";
  std::remove(path.c_str());
  FileLock lock(path);
  lock.lock();
  lock.lock();  // same thread: must not deadlock
  {
    std::lock_guard<FileLock> guard(lock);  // third level via the guard
    EXPECT_TRUE(lock.ok());
  }
  lock.unlock();
  lock.unlock();
  // Fully released: another thread can take it without blocking forever.
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    std::lock_guard<FileLock> guard(lock);
    acquired = true;
  });
  t.join();
  EXPECT_TRUE(acquired.load());
  std::remove(path.c_str());
}

TEST(FileLock, SerializesProcesses) {
  // Classic lost-update detector: each process read-modify-writes a counter
  // file non-atomically under the lock. Any mutual-exclusion failure loses
  // increments; the lock must make the final count exact.
  const std::string counter = tempPath("file_lock_counter");
  const std::string lockPath = counter + ".lock";
  std::remove(counter.c_str());
  std::remove(lockPath.c_str());
  {
    std::FILE* f = std::fopen(counter.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("0", f);
    std::fclose(f);
  }
  constexpr int kProcs = 4;
  constexpr int kIncrements = 50;
  std::vector<pid_t> children;
  for (int p = 0; p < kProcs; ++p) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      FileLock lock(lockPath);
      for (int i = 0; i < kIncrements; ++i) {
        std::lock_guard<FileLock> guard(lock);
        long v = 0;
        if (std::FILE* in = std::fopen(counter.c_str(), "rb")) {
          (void)std::fscanf(in, "%ld", &v);
          std::fclose(in);
        }
        if (std::FILE* out = std::fopen(counter.c_str(), "wb")) {
          std::fprintf(out, "%ld", v + 1);
          std::fclose(out);
        }
      }
      std::_Exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  long v = -1;
  std::FILE* in = std::fopen(counter.c_str(), "rb");
  ASSERT_NE(in, nullptr);
  ASSERT_EQ(std::fscanf(in, "%ld", &v), 1);
  std::fclose(in);
  EXPECT_EQ(v, long{kProcs} * kIncrements);
  std::remove(counter.c_str());
  std::remove(lockPath.c_str());
}

TEST(AtomicAppend, ConcurrentProcessesNeverTearOrInterleaveLines) {
  // The satellite guarantee: several appender processes, NO file lock (the
  // append itself must not tear), every line arrives whole. Long payloads
  // maximize the damage any partial write would cause.
  const std::string path = tempPath("atomic_append") + ".jsonl";
  std::remove(path.c_str());
  constexpr int kProcs = 4;
  constexpr int kLines = 100;
  std::vector<pid_t> children;
  for (int p = 0; p < kProcs; ++p) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      AtomicAppend appender(path);
      const std::string payload(256, static_cast<char>('a' + p));
      bool ok = appender.ok();
      for (int i = 0; ok && i < kLines; ++i) {
        ok = appender.appendLine("{\"writer\":" + std::to_string(p) +
                                 ",\"line\":" + std::to_string(i) +
                                 ",\"pad\":\"" + payload + "\"}");
      }
      std::_Exit(ok ? 0 : 1);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  // Every line parses, every (writer, line) pair is present exactly once.
  std::vector<int> seen(kProcs, 0);
  const JsonlReadStats read =
      readLinesFrom(path, 0, /*consumeTail=*/true, [&](std::string_view text) {
        const std::optional<Json> record = Json::parse(text);
        if (!record) return false;
        const Json* writer = record->find("writer");
        const Json* line = record->find("line");
        EXPECT_NE(writer, nullptr);
        EXPECT_NE(line, nullptr);
        if (writer == nullptr || line == nullptr) return true;
        const auto w = static_cast<int>(writer->asUint(kProcs));
        EXPECT_LT(w, kProcs);
        if (w >= kProcs) return true;
        EXPECT_EQ(line->asUint(~0ull), static_cast<std::uint64_t>(seen[w]))
            << "writer " << w << "'s lines arrived out of order";
        ++seen[w];
        return true;
      });
  EXPECT_EQ(read.lines, static_cast<std::size_t>(kProcs) * kLines);
  EXPECT_EQ(read.malformed, 0u);
  for (int p = 0; p < kProcs; ++p) EXPECT_EQ(seen[p], kLines);
  std::remove(path.c_str());
}

TEST(AtomicAppend, HealsATornTailBeforeAppending) {
  // A writer killed mid-write leaves an unterminated line. The next append
  // must isolate that residue as ONE malformed line instead of gluing the
  // new record onto it (which would poison both).
  const std::string path = tempPath("atomic_heal") + ".jsonl";
  std::remove(path.c_str());
  {
    AtomicAppend appender(path);
    ASSERT_TRUE(appender.ok());
    ASSERT_TRUE(appender.appendLine("{\"n\":1}"));
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"n\":2,\"trunca", f);  // no newline: torn residue
    std::fclose(f);
  }
  {
    AtomicAppend appender(path);
    ASSERT_TRUE(appender.appendLine("{\"n\":3}"));
  }
  std::vector<std::uint64_t> values;
  const JsonlReadStats read =
      readLinesFrom(path, 0, /*consumeTail=*/true, [&](std::string_view text) {
        const std::optional<Json> record = Json::parse(text);
        if (!record) return false;
        if (const Json* n = record->find("n")) values.push_back(n->asUint(0));
        return true;
      });
  EXPECT_EQ(read.lines, 3u);
  EXPECT_EQ(read.malformed, 1u);  // exactly the residue, nothing else
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], 1u);
  EXPECT_EQ(values[1], 3u);
  // The file still ends in a newline: the healed tail cannot cascade.
  const std::string bytes = slurp(path);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.back(), '\n');
  std::remove(path.c_str());
}

TEST(ProcessLiveness, SelfAliveAndReapedChildDead) {
  EXPECT_TRUE(processAlive(currentPid()));
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) std::_Exit(0);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  // Reaped: the pid is gone (barring immediate reuse, which would only
  // make the fleet wait for lease expiry — never unsound).
  EXPECT_FALSE(processAlive(static_cast<std::uint64_t>(pid)));
}

TEST(WallClock, IsEpochScaledAndMonotonicEnough) {
  const std::uint64_t a = wallClockMs();
  const std::uint64_t b = wallClockMs();
  EXPECT_GE(b, a);
  EXPECT_GT(a, 1'600'000'000'000ull);  // after 2020 — epoch milliseconds
}

}  // namespace
}  // namespace onebit::util
