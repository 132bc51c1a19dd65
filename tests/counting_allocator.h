#ifndef NEXT700_TESTS_COUNTING_ALLOCATOR_H_
#define NEXT700_TESTS_COUNTING_ALLOCATOR_H_

/// \file
/// A counting global allocator: replaces operator new/delete for the whole
/// binary, and every allocation bumps AllocationCount(). Deletes do not
/// count: the metric is allocation traffic. Shared by the allocation
/// regression tests and the A3 hot-path bench.
///
/// Replacing operator new is binary-global, so include this header from
/// exactly one translation unit of a binary that wants the shim.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace next700 {
namespace counting_allocator {

inline std::atomic<uint64_t> g_allocs{0};

/// Allocations made by this binary so far.
inline uint64_t AllocationCount() {
  return g_allocs.load(std::memory_order_relaxed);
}

/// The one release path: every replaced delete funnels here, out of line,
/// so the compiler never pairs an inlined free() with operator new.
[[gnu::noinline]] inline void Release(void* p) noexcept { std::free(p); }

}  // namespace counting_allocator
}  // namespace next700

void* operator new(std::size_t size) {
  next700::counting_allocator::g_allocs.fetch_add(1,
                                                  std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  next700::counting_allocator::g_allocs.fetch_add(1,
                                                  std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) !=
      0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept {
  next700::counting_allocator::Release(p);
}
void operator delete(void* p, std::size_t) noexcept {
  next700::counting_allocator::Release(p);
}
void operator delete[](void* p) noexcept {
  next700::counting_allocator::Release(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  next700::counting_allocator::Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  next700::counting_allocator::Release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  next700::counting_allocator::Release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  next700::counting_allocator::Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  next700::counting_allocator::Release(p);
}

#endif  // NEXT700_TESTS_COUNTING_ALLOCATOR_H_
