// Counting global allocator: tracks live and peak heap bytes of the
// whole process (every thread) for the peak_heap_mb metric. Sizes come
// from malloc_usable_size, so sized and unsized deletes agree.
#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "support.h"

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void note_alloc(void* p) {
  const std::size_t size = malloc_usable_size(p);
  const std::size_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* counted_alloc(std::size_t size, std::size_t align) {
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size == 0 ? 1 : size);
  } else if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    p = nullptr;
  }
  if (p != nullptr) note_alloc(p);
  return p;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace zpm::perfbench {

std::size_t heap_live_bytes() { return g_live.load(std::memory_order_relaxed); }
std::size_t heap_peak_bytes() { return g_peak.load(std::memory_order_relaxed); }
void heap_reset_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

}  // namespace zpm::perfbench

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
