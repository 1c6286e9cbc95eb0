// Byte-buffer vocabulary types shared across stdchk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

// Poison for default-initialized bytes: when 1, every element a Bytes
// default-initializes (Bytes(n), resize(n)) is set to 0xA5, so code that
// still counts on zero-fill reads garbage in tests instead of passing by
// luck. On wherever asserts are (no NDEBUG); the root CMake build also
// turns it on for RelWithDebInfo, its test default. Release builds leave
// the bytes untouched.
#ifndef STDCHK_POISON_DEFAULT_INIT
#ifdef NDEBUG
#define STDCHK_POISON_DEFAULT_INIT 0
#else
#define STDCHK_POISON_DEFAULT_INIT 1
#endif
#endif

namespace stdchk {

// std::allocator, except that value-initialization without arguments
// becomes default-initialization: sizing a vector of trivial elements
// reserves the memory and writes nothing. Construction with arguments
// (Bytes(n, 0), push_back, insert) is unchanged.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
#if STDCHK_POISON_DEFAULT_INIT
    if constexpr (std::is_trivially_copyable_v<U>) {
      std::memset(static_cast<void*>(p), 0xA5, sizeof(U));
    }
#endif
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

// A byte buffer. Bytes(n) and resize(n) leave the new bytes unspecified —
// the buffer is about to be overwritten, so nothing pays to zero it first;
// pass the value for defined contents: Bytes(n, 0), resize(n, 0).
using Bytes = std::vector<std::uint8_t, DefaultInitAllocator<std::uint8_t>>;
using ByteSpan = std::span<const std::uint8_t>;
using MutableByteSpan = std::span<std::uint8_t>;

inline ByteSpan AsBytes(const std::string& s) {
  return ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

inline Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline std::string ToString(ByteSpan bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

inline void Append(Bytes& dst, ByteSpan src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

// Size literals.
constexpr std::size_t operator""_KiB(unsigned long long v) {
  return static_cast<std::size_t>(v) << 10;
}
constexpr std::size_t operator""_MiB(unsigned long long v) {
  return static_cast<std::size_t>(v) << 20;
}
constexpr std::size_t operator""_GiB(unsigned long long v) {
  return static_cast<std::size_t>(v) << 30;
}

}  // namespace stdchk
