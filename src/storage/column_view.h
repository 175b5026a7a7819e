// Column access that works over resident arrays, paged columns, and
// version-chunk overlays.
//
// Operators take ColumnView<T> instead of Column<T>& / raw pointers: a
// view either wraps resident memory (raw pointer + length — the implicit
// conversion from Column<T> keeps existing call sites compiling and the
// fast path a plain indexed load), a PagedColumn<T> whose partitions
// must be pinned before access, or either of those plus a *versioned
// overlay* — a (VersionSource, epoch) pair that resolves each fixed-size
// chunk to a committed copy-on-write version array or falls through to
// the base view (docs/htap.md). Two access patterns cover the operators:
//
//  - ForEachRun: sequential scans. Pins one partition at a time (an
//    evicted partition is loaded by the pin itself) and hands the kernel a
//    (pointer, absolute base, count) run. With an overlay, runs
//    additionally break at version chunk boundaries.
//  - ColumnReader: positional access by row id. Caches the last pinned
//    partition (or version chunk); row-id lists produced by scans are
//    ascending, so nearly every access hits the cached run. operator[]
//    cannot return a Status, so pin failures latch into status(), which
//    callers check after the loop (reads after a failure return 0 and
//    stay memory-safe).

#ifndef SGXB_STORAGE_COLUMN_VIEW_H_
#define SGXB_STORAGE_COLUMN_VIEW_H_

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/relation.h"
#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/version_source.h"

namespace sgxb::storage {

template <typename T>
class ColumnView {
 public:
  ColumnView() = default;
  // NOLINTNEXTLINE(runtime/explicit): Column call sites convert in place.
  ColumnView(const Column<T>& column)
      : data_(column.data()), num_values_(column.num_values()) {}
  ColumnView(const T* data, size_t num_values)
      : data_(data), num_values_(num_values) {}
  // NOLINTNEXTLINE(runtime/explicit)
  ColumnView(PagedColumn<T>* paged)
      : paged_(paged), num_values_(paged->num_values()) {}
  /// \brief Versioned overlay over `base` (resident or paged, not itself
  /// versioned): chunks with a committed version at `epoch` read the
  /// version array, all others read the base. The snapshot owner must
  /// keep `epoch` pinned (txn::SnapshotHandle) while the view is in use.
  ColumnView(const VersionSource<T>* source, uint64_t epoch,
             const ColumnView<T>& base)
      : data_(base.data_),
        paged_(base.paged_),
        vsrc_(source),
        epoch_(epoch),
        num_values_(base.num_values_) {}

  size_t num_values() const { return num_values_; }
  /// Decoded (logical) size — what a resident copy of the column occupies.
  size_t size_bytes() const { return num_values_ * sizeof(T); }
  bool paged() const { return paged_ != nullptr; }
  /// True when a version overlay is attached; flat-pointer fast paths
  /// must not bypass it (use ForEachRun / ColumnReader).
  bool versioned() const { return vsrc_ != nullptr; }
  /// Resident data pointer; null for paged views. With an overlay this is
  /// the *base* data — do not read it directly, chunks may be superseded.
  const T* raw() const { return data_; }
  PagedColumn<T>* paged_column() const { return paged_; }
  const VersionSource<T>* version_source() const { return vsrc_; }
  uint64_t epoch() const { return epoch_; }
  /// \brief The view without its overlay (the base the versions shadow).
  ColumnView<T> base() const {
    ColumnView<T> b;
    b.data_ = data_;
    b.paged_ = paged_;
    b.num_values_ = num_values_;
    return b;
  }

 private:
  const T* data_ = nullptr;
  PagedColumn<T>* paged_ = nullptr;
  const VersionSource<T>* vsrc_ = nullptr;
  uint64_t epoch_ = 0;
  size_t num_values_ = 0;
};

/// \brief Invokes `fn(run, abs_base, count)` over [begin, end): once for a
/// resident view, once per partition run for a paged view (pinning each
/// in turn), and additionally split at version chunk boundaries for a
/// versioned view (each chunk resolves to its visible version array or
/// falls through to the base). `run[i]` is row `abs_base + i`.
template <typename T, typename Fn>
Status ForEachRun(const ColumnView<T>& view, size_t begin, size_t end,
                  Fn&& fn) {
  if (begin >= end) return Status::OK();
  if (view.versioned()) {
    const VersionSource<T>* src = view.version_source();
    const ColumnView<T> base = view.base();
    const size_t cr = src->chunk_rows();
    size_t i = begin;
    while (i < end) {
      const size_t c = i / cr;
      const size_t run_end = std::min(end, (c + 1) * cr);
      const T* v = src->ChunkVersion(c, view.epoch());
      if (v != nullptr) {
        fn(v + (i - c * cr), i, run_end - i);
      } else {
        SGXB_RETURN_NOT_OK(ForEachRun(base, i, run_end, fn));
      }
      i = run_end;
    }
    return Status::OK();
  }
  if (!view.paged()) {
    fn(view.raw() + begin, begin, end - begin);
    return Status::OK();
  }
  PagedColumn<T>* col = view.paged_column();
  const size_t pr = col->partition_rows();
  size_t i = begin;
  while (i < end) {
    const size_t p = i / pr;
    const size_t run_end = std::min(end, (p + 1) * pr);
    auto pinned = col->PinPartition(p);
    if (!pinned.ok()) return pinned.status();
    fn(pinned.value() + (i - p * pr), i, run_end - i);
    col->UnpinPartition(p);
    i = run_end;
  }
  return Status::OK();
}

template <typename T>
class ColumnReader {
 public:
  ColumnReader() = default;
  explicit ColumnReader(const ColumnView<T>& view) { Reset(view); }
  ~ColumnReader() { Release(); }

  ColumnReader(const ColumnReader&) = delete;
  ColumnReader& operator=(const ColumnReader&) = delete;

  // Movable so per-thread predicate objects can hold readers by value.
  ColumnReader(ColumnReader&& other) noexcept { *this = std::move(other); }
  ColumnReader& operator=(ColumnReader&& other) noexcept {
    if (this != &other) {
      Release();
      run_ = other.run_;
      run_base_ = other.run_base_;
      run_len_ = other.run_len_;
      paged_ = other.paged_;
      vsrc_ = other.vsrc_;
      epoch_ = other.epoch_;
      base_ = other.base_;
      size_ = other.size_;
      pinned_part_ = other.pinned_part_;
      status_ = std::move(other.status_);
      other.pinned_part_ = kNoPin;
      other.run_ = nullptr;
      other.run_len_ = 0;
      other.paged_ = nullptr;
      other.vsrc_ = nullptr;
    }
    return *this;
  }

  void Reset(const ColumnView<T>& view) {
    Release();
    status_ = Status::OK();
    paged_ = view.paged_column();
    vsrc_ = view.version_source();
    epoch_ = view.epoch();
    base_ = view.raw();
    size_ = view.num_values();
    if (view.paged() || view.versioned()) {
      // Every access resolves through Slow until a run is cached; a
      // versioned view must not pre-install the whole base as a run, or
      // superseded chunks would be read past their versions.
      run_ = nullptr;
      run_base_ = 0;
      run_len_ = 0;
    } else {
      run_ = view.raw();
      run_base_ = 0;
      run_len_ = view.num_values();
    }
  }

  /// \brief Value of row `i`. For paged views this may pin (and load) a
  /// partition; a failed pin latches status() and yields 0.
  T operator[](size_t i) {
    // Unsigned wrap makes one compare cover both bounds.
    if (i - run_base_ < run_len_) return run_[i - run_base_];
    return Slow(i);
  }

  const Status& status() const { return status_; }

 private:
  T Slow(size_t i) {
    if (vsrc_ != nullptr) return SlowVersioned(i);
    if (paged_ == nullptr) {
      status_ = Status::InvalidArgument("row id out of column range");
      return T{};
    }
    Release();
    const size_t p = paged_->PartitionOf(i);
    auto pinned = paged_->PinPartition(p);
    if (!pinned.ok()) {
      status_ = pinned.status();
      return T{};
    }
    run_ = pinned.value();
    run_base_ = paged_->PartitionBegin(p);
    run_len_ = paged_->PartitionValues(p);
    pinned_part_ = p;
    return run_[i - run_base_];
  }

  // Versioned overlay: cached runs never cross a version chunk boundary,
  // so the per-chunk visibility decision is re-made exactly when the
  // reader leaves the chunk.
  T SlowVersioned(size_t i) {
    if (i >= size_) {
      status_ = Status::InvalidArgument("row id out of column range");
      return T{};
    }
    const size_t cr = vsrc_->chunk_rows();
    const size_t c = i / cr;
    const size_t cbegin = c * cr;
    const size_t cend = std::min(size_, cbegin + cr);
    const T* v = vsrc_->ChunkVersion(c, epoch_);
    if (v != nullptr) {
      Release();
      run_ = v;
      run_base_ = cbegin;
      run_len_ = cend - cbegin;
      return run_[i - cbegin];
    }
    if (paged_ == nullptr) {
      Release();
      run_ = base_ + cbegin;
      run_base_ = cbegin;
      run_len_ = cend - cbegin;
      return run_[i - cbegin];
    }
    Release();
    const size_t p = paged_->PartitionOf(i);
    auto pinned = paged_->PinPartition(p);
    if (!pinned.ok()) {
      status_ = pinned.status();
      return T{};
    }
    pinned_part_ = p;
    const size_t pbegin = paged_->PartitionBegin(p);
    const size_t pend = pbegin + paged_->PartitionValues(p);
    // The cached run is the intersection of the pinned partition and the
    // version chunk, so neither boundary is read past.
    run_base_ = std::max(pbegin, cbegin);
    run_len_ = std::min(pend, cend) - run_base_;
    run_ = pinned.value() + (run_base_ - pbegin);
    return run_[i - run_base_];
  }

  void Release() {
    if (paged_ != nullptr && pinned_part_ != kNoPin) {
      paged_->UnpinPartition(pinned_part_);
    }
    pinned_part_ = kNoPin;
    run_ = nullptr;
    run_base_ = 0;
    run_len_ = 0;
  }

  static constexpr size_t kNoPin = static_cast<size_t>(-1);

  const T* run_ = nullptr;
  size_t run_base_ = 0;
  size_t run_len_ = 0;
  PagedColumn<T>* paged_ = nullptr;
  const VersionSource<T>* vsrc_ = nullptr;
  uint64_t epoch_ = 0;
  const T* base_ = nullptr;
  size_t size_ = 0;
  Status status_;
  size_t pinned_part_ = kNoPin;
};

}  // namespace sgxb::storage

#endif  // SGXB_STORAGE_COLUMN_VIEW_H_
