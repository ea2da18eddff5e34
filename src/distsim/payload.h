// distsim::Payload — the message payload type: a short sequence of reals.
//
// The paper's protocols send O(1) reals per message (Section II,
// "Message Content and Size"): compact elimination and its relatives
// broadcast one surviving number per round, the tree phases send two.
// Payload keeps up to kInline = 2 entries inside the object itself, so
// staging, moving and reading such a message touches no heap and follows
// no pointer; a longer payload (weak densest's (2T+1)-word aggregation
// sends) spills to one heap block, which moves by pointer steal.
//
// It keeps the std::vector<double> calls protocols use — size, empty,
// operator[], data, begin/end, push_back, reserve, resize (new entries
// are 0.0), clear, brace initialization and assignment — with the same
// meaning, and the same == : element-wise double comparison, so -0.0 ==
// 0.0 and a payload holding NaN never equals anything (the predicate
// Engine::RunUntilQuiescent compares broadcasts with). Differences from
// a vector:
//   * moving an inline payload copies its (at most 2) entries and leaves
//     the source empty;
//   * sizes are 32-bit: growing past kMaxSize entries is a KCORE_CHECK
//     failure, never a silent truncation. Wire decoders bound a length
//     by the bytes actually present before resizing (TryReadWirePayload,
//     transport.h), so no peer can trigger either;
//   * storage never shrinks back inline (like a vector's capacity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace kcore::distsim {

class Payload {
 public:
  using value_type = double;
  using size_type = std::size_t;
  using iterator = double*;
  using const_iterator = const double*;

  // Entries stored inline, without a heap block.
  static constexpr std::size_t kInline = 2;

  Payload() noexcept = default;
  Payload(std::initializer_list<double> init) {
    Assign(init.begin(), init.size());
  }
  Payload(const Payload& o) { Assign(o.data(), o.size()); }
  Payload(Payload&& o) noexcept { TakeFrom(o); }
  Payload& operator=(const Payload& o) {
    if (this != &o) Assign(o.data(), o.size());
    return *this;
  }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      FreeHeap();
      TakeFrom(o);
    }
    return *this;
  }
  Payload& operator=(std::initializer_list<double> init) {
    Assign(init.begin(), init.size());
    return *this;
  }
  ~Payload() { FreeHeap(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  // kInline while the entries live in the object itself.
  std::size_t capacity() const noexcept { return cap_; }

  double* data() noexcept { return is_inline() ? inline_ : heap_; }
  const double* data() const noexcept { return is_inline() ? inline_ : heap_; }
  double& operator[](std::size_t i) noexcept { return data()[i]; }
  const double& operator[](std::size_t i) const noexcept { return data()[i]; }
  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }

  void clear() noexcept { size_ = 0; }
  void reserve(std::size_t n) {
    if (n > cap_) Grow(n);
  }
  void resize(std::size_t n) {
    if (n > cap_) Grow(n);
    double* p = data();
    for (std::size_t i = size_; i < n; ++i) p[i] = 0.0;
    size_ = static_cast<std::uint32_t>(n);
  }
  void push_back(double x) {
    if (size_ == cap_) Grow(std::size_t{size_} + 1);
    data()[size_++] = x;
  }

  friend bool operator==(const Payload& a, const Payload& b) noexcept {
    if (a.size_ != b.size_) return false;
    const double* x = a.data();
    const double* y = b.data();
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(x[i] == y[i])) return false;
    }
    return true;
  }

 private:
  // Largest representable size (32-bit size field).
  static constexpr std::size_t kMaxSize = 0xffffffffu;

  bool is_inline() const noexcept { return cap_ <= kInline; }
  // Out of line (payload.cc): moves the entries to a heap block of at
  // least `need` (> capacity()) slots; KCORE_CHECK-fails past kMaxSize.
  void Grow(std::size_t need);
  void Assign(const double* src, std::size_t n) {
    if (n > cap_) Grow(n);
    double* p = data();
    for (std::size_t i = 0; i < n; ++i) p[i] = src[i];
    size_ = static_cast<std::uint32_t>(n);
  }
  void FreeHeap() noexcept {
    if (!is_inline()) delete[] heap_;
  }
  // Takes o's entries (block pointer or inline copy); o ends up empty and
  // inline. Assumes this payload holds no heap block.
  void TakeFrom(Payload& o) noexcept {
    size_ = o.size_;
    cap_ = o.cap_;
    if (o.is_inline()) {
      inline_[0] = o.inline_[0];
      inline_[1] = o.inline_[1];
    } else {
      heap_ = o.heap_;
      o.cap_ = kInline;
      o.inline_[0] = 0.0;
      o.inline_[1] = 0.0;
    }
    o.size_ = 0;
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;  // > kInline iff heap_ is the live member
  union {
    double inline_[kInline] = {0.0, 0.0};
    double* heap_;
  };
};

}  // namespace kcore::distsim
