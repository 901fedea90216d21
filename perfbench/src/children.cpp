#include "children.h"

#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "svc/client.h"

namespace perfbench {

ScratchDir::ScratchDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string tmpl = parent + "/run.XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr)
    throw std::runtime_error("mkdtemp failed under " + parent);
  path_ = tmpl;
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

Child::Child(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Die with the harness; never leave a core file in the checkout.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const rlimit no_core{0, 0};
    ::setrlimit(RLIMIT_CORE, &no_core);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
}

void Child::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

void wait_healthy(const std::string& socket_path, double timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::milli>(timeout_ms);
  while (true) {
    try {
      svc::SvcClient::ReconnectOptions no_retry;
      no_retry.attempts = 0;
      if (svc::SvcClient::connect(socket_path, no_retry).health().ok) return;
    } catch (const std::exception&) {
      // not listening yet
    }
    if (std::chrono::steady_clock::now() > deadline)
      throw std::runtime_error("no healthy answer from " + socket_path);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace perfbench
