// InlineVector — a vector that keeps its first N elements inside the object.
//
// The binder call path builds a handful of tiny, short-lived sequences per
// transaction: a parcel's values, a handler's binder and scalar arguments, a
// node's holder pids and death links. Each is almost always 1-6 elements
// long, so a std::vector would cost one heap allocation (plus regrowth) per
// sequence per call. InlineVector stores up to N elements in place and only
// moves to the heap past that, with std::vector's contiguous layout and the
// subset of its interface those callers use.
#ifndef JGRE_COMMON_INLINE_VECTOR_H_
#define JGRE_COMMON_INLINE_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace jgre {

template <typename T, std::size_t N>
class InlineVector {
  static_assert(N > 0, "InlineVector needs inline capacity");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVector() noexcept = default;
  InlineVector(const InlineVector& other) { CopyFrom(other); }
  InlineVector(InlineVector&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    MoveFrom(other);
  }
  InlineVector& operator=(const InlineVector& other) {
    if (this != &other) {
      clear();
      CopyFrom(other);
    }
    return *this;
  }
  InlineVector& operator=(InlineVector&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &other) {
      clear();
      Deallocate();
      MoveFrom(other);
    }
    return *this;
  }
  ~InlineVector() {
    clear();
    Deallocate();
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }

  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    const std::size_t grown = std::max(n, capacity_ * 2);
    T* fresh = std::allocator<T>().allocate(grown);
    std::uninitialized_move(begin(), end(), fresh);
    std::destroy(begin(), end());
    Deallocate();
    data_ = fresh;
    capacity_ = grown;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ < capacity_) {
      ::new (static_cast<void*>(data_ + size_))
          T(std::forward<Args>(args)...);
    } else {
      // Built before the move: `args` may refer to an element.
      T value(std::forward<Args>(args)...);
      reserve(size_ + 1);
      ::new (static_cast<void*>(data_ + size_)) T(std::move(value));
    }
    return data_[size_++];
  }
  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  iterator insert(const_iterator pos, T value) {
    const std::size_t index = static_cast<std::size_t>(pos - data_);
    emplace_back(std::move(value));
    std::rotate(begin() + index, end() - 1, end());
    return begin() + index;
  }
  iterator erase(const_iterator pos) {
    const std::size_t index = static_cast<std::size_t>(pos - data_);
    std::move(begin() + index + 1, end(), begin() + index);
    pop_back();
    return begin() + index;
  }
  void pop_back() {
    --size_;
    std::destroy_at(data_ + size_);
  }
  void clear() {
    std::destroy(begin(), end());
    size_ = 0;
  }

 private:
  T* InlineData() { return reinterpret_cast<T*>(inline_); }

  void Deallocate() {
    if (data_ != InlineData()) {
      std::allocator<T>().deallocate(data_, capacity_);
      data_ = InlineData();
      capacity_ = N;
    }
  }
  // Both expect this vector empty.
  void CopyFrom(const InlineVector& other) {
    reserve(other.size_);
    std::uninitialized_copy(other.begin(), other.end(), data_);
    size_ = other.size_;
  }
  void MoveFrom(InlineVector& other) {
    if (other.data_ != other.InlineData()) {
      // Heap storage changes hands; `other` falls back to its inline buffer.
      data_ = std::exchange(other.data_, other.InlineData());
      capacity_ = std::exchange(other.capacity_, N);
      size_ = std::exchange(other.size_, 0);
      return;
    }
    std::uninitialized_move(other.begin(), other.end(), data_);
    size_ = other.size_;
    other.clear();
  }

  alignas(T) unsigned char inline_[sizeof(T) * N];
  T* data_ = InlineData();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace jgre

#endif  // JGRE_COMMON_INLINE_VECTOR_H_
