#ifndef PPN_COMMON_CHECK_H_
#define PPN_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

/// \file
/// Contract-checking macros. The library does not use exceptions; a failed
/// check prints the failing condition plus an optional streamed message and
/// aborts. `PPN_DCHECK` compiles out of release builds (`NDEBUG`).

namespace ppn::internal_check {

/// Sink that collects a streamed message and aborts on destruction.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* condition) {
    stream_ << "PPN_CHECK failed at " << file << ":" << line << ": "
            << condition;
  }

  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  [[noreturn]] ~CheckFailure() {
    stream_ << "\n";
    std::fputs(stream_.str().c_str(), stderr);
    std::fflush(stderr);
    std::abort();
  }

  template <typename T>
  CheckFailure& operator<<(const T& value) {
    stream_ << " " << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace ppn::internal_check

#define PPN_CHECK(condition)                                             \
  if (condition) {                                                       \
  } else /* NOLINT */                                                    \
    ::ppn::internal_check::CheckFailure(__FILE__, __LINE__, #condition)

#define PPN_CHECK_EQ(a, b) PPN_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ")"
#define PPN_CHECK_NE(a, b) PPN_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ")"
#define PPN_CHECK_LT(a, b) PPN_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ")"
#define PPN_CHECK_LE(a, b) PPN_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ")"
#define PPN_CHECK_GT(a, b) PPN_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ")"
#define PPN_CHECK_GE(a, b) PPN_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ")"

namespace ppn {

/// Returns `pointer` after checking it is non-null, so a member initializer
/// list can check a constructor argument before reading through it.
template <typename T>
T* CheckNotNull(T* pointer, const char* what) {
  PPN_CHECK(pointer != nullptr) << what << "is null";
  return pointer;
}

}  // namespace ppn

#ifdef NDEBUG
#define PPN_DCHECK(condition) \
  if (true) {                 \
  } else /* NOLINT */         \
    ::ppn::internal_check::CheckFailure(__FILE__, __LINE__, #condition)
#else
#define PPN_DCHECK(condition) PPN_CHECK(condition)
#endif

#endif  // PPN_COMMON_CHECK_H_
