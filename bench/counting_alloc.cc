#include "counting_alloc.h"

#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

void* counted_malloc(std::size_t size) {
  ++t_allocs;
  t_alloc_bytes += size;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace zpm::bench {
std::uint64_t thread_allocs() { return t_allocs; }
std::uint64_t thread_alloc_bytes() { return t_alloc_bytes; }
}  // namespace zpm::bench

// GCC pairs its builtin knowledge of operator new[] with free() at
// inlined call sites and warns, even though these replacements make the
// pairing correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
