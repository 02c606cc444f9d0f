// Scoped environment variable for tests that drive MF_* parsing: sets the
// variable on construction and restores the previous value (or unsets
// it) on destruction, so a failing assertion cannot leak it into later
// tests.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (old_) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};
