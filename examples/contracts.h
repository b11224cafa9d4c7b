// Contract checks for the examples that ctest runs (examples/CMakeLists.txt).
// Each check prints one line; a broken contract is named on stderr, and the
// example's exit status is the test verdict.

#ifndef DBSCALE_EXAMPLES_CONTRACTS_H_
#define DBSCALE_EXAMPLES_CONTRACTS_H_

#include <cstdio>
#include <string>

namespace dbscale::examples {

class Contracts {
 public:
  /// Prints "check ok: <what>" when the contract holds, and
  /// "FAIL: <what>" on stderr when it does not.
  void Check(bool holds, const std::string& what) {
    if (holds) {
      std::printf("check ok: %s\n", what.c_str());
    } else {
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
      ++broken_;
    }
  }

  /// 0 when every contract held, 1 otherwise.
  int ExitCode() const { return broken_ == 0 ? 0 : 1; }

 private:
  int broken_ = 0;
};

}  // namespace dbscale::examples

#endif  // DBSCALE_EXAMPLES_CONTRACTS_H_
