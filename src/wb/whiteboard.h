// The shared whiteboard: an append-only sequence of bit-string messages.
//
// Faithful to §2: nodes and the output function observe the *sequence of
// messages in write order* and nothing else. In particular the whiteboard
// does not reveal writer identities — every protocol in the paper embeds
// ID(v) in its own message when it needs to be identified.
//
// Memory model: the message storage is a shared, logically immutable prefix.
// A Whiteboard is a (storage, count) pair — copying one is O(1) (it shares
// the storage and remembers how much of it is "its" board), which is what
// snapshotting a board into an ExecutionResult costs. Appends extend the
// shared storage in place when that is safe (the new slot is past every
// sharer's count) and clone the live prefix only when a stale-prefix holder
// diverges. truncate() lets the engine's backtracking explorer unwind writes;
// it pops storage physically only when this board is the sole owner.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/support/bitio.h"
#include "src/support/hash.h"

namespace wb {

class Whiteboard {
 public:
  /// Undoes `fold(view, message)` for the newest message of a cached view.
  template <typename T>
  using Unfold = void (*)(T& view, const Bits& message);

  Whiteboard() = default;
  Whiteboard(const Whiteboard&) = default;
  Whiteboard& operator=(const Whiteboard&) = default;
  // User-defined moves: the logical size lives outside the shared storage
  // pointer, so a moved-from board must drop its count with the storage or
  // its accessors would index through null.
  Whiteboard(Whiteboard&& other) noexcept
      : entries_(std::move(other.entries_)),
        count_(std::exchange(other.count_, 0)),
        total_bits_(std::exchange(other.total_bits_, 0)),
        cache_(std::move(other.cache_)) {}
  Whiteboard& operator=(Whiteboard&& other) noexcept {
    if (this != &other) {
      entries_ = std::move(other.entries_);
      count_ = std::exchange(other.count_, 0);
      total_bits_ = std::exchange(other.total_bits_, 0);
      cache_ = std::move(other.cache_);
    }
    return *this;
  }

  /// Pre-size the storage. The engine reserves n slots up front so a whole
  /// run appends without a single reallocation (and without invalidating
  /// spans handed out by messages()).
  void reserve(std::size_t message_capacity) {
    own_tail();
    entries_->reserve(message_capacity);
  }

  void append(Bits message) {
    total_bits_ += message.size();
    own_tail();
    entries_->push_back(std::move(message));
    ++count_;
    // A cached view now describes a prefix of the board; cached_view
    // extends it on the next read.
  }

  /// Drop every message past the first `new_count`. O(messages dropped).
  /// A cached view of a surviving prefix stays valid (the prefix is
  /// immutable). A view of anything longer is rolled back to the surviving
  /// prefix when it has an `unfold` and this board is its sole holder;
  /// otherwise it is dropped, since the next appends may differ from the
  /// messages it saw and a snapshot may still read it.
  void truncate(std::size_t new_count) {
    WB_CHECK(new_count <= count_);
    if (cache_ != nullptr && cache_->count > new_count) rewind_cache(new_count);
    for (std::size_t i = new_count; i < count_; ++i) {
      total_bits_ -= (*entries_)[i].size();
    }
    count_ = new_count;
    if (entries_ != nullptr && entries_.use_count() == 1) {
      entries_->resize(count_);  // sole owner: free the dead tail now
    }
  }

  [[nodiscard]] std::size_t message_count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] const Bits& message(std::size_t i) const {
    WB_CHECK(i < count_);
    return (*entries_)[i];
  }

  [[nodiscard]] std::span<const Bits> messages() const noexcept {
    return entries_ == nullptr
               ? std::span<const Bits>()
               : std::span<const Bits>(entries_->data(), count_);
  }

  /// Total bits currently on the whiteboard (the Lemma 3 budget).
  [[nodiscard]] std::size_t total_bits() const noexcept { return total_bits_; }

  /// Word-wise 128-bit hash of the board contents (message lengths and
  /// words, in write order). Two boards with equal contents hash equally;
  /// distinct boards collide with probability ~2^-128.
  [[nodiscard]] Hash128 content_hash() const noexcept {
    Hasher128 h;
    for (const Bits& m : messages()) {
      h.update(m.size());
      const std::uint64_t* words = m.word_data();
      for (std::size_t w = 0, e = m.word_count(); w < e; ++w) {
        h.update(words[w]);
      }
    }
    return h.digest();
  }

  /// Memoized decoded view of the board, for views that are a left fold
  /// over the messages: the view of the empty board is `start()`, and
  /// `fold(view, message)` adds one message. An optional
  /// `unfold(view, message)` undoes the fold of the newest message.
  ///
  /// Protocol callbacks are invoked O(n) times per round on the same
  /// whiteboard; parsing the full board in each call makes a run O(n³).
  /// Because the board is append-only, a view of a prefix stays valid: the
  /// memo extends it by the messages appended since — in place when this
  /// board is its only holder — so a run decodes each message once. Copying
  /// a Whiteboard shares the memo (both copies hold the same prefix), which
  /// is exactly what snapshotting a board mid-exploration needs. The slot is
  /// a single allocation; the view type is identified by a tagged static,
  /// not typeid. If `fold` throws (a message the protocol cannot decode),
  /// the partial view is discarded and the error propagates.
  ///
  /// truncate() rolls a view with an `unfold` back in place while this
  /// board is its sole holder, so the backtracking explorer decodes each
  /// message once per write instead of rebuilding the view after every
  /// rewind. A view without `unfold`, or one a snapshot shares, is dropped
  /// and rebuilt on the next read.
  ///
  /// `start`, `fold` and `unfold` must be pure functions of their arguments
  /// (the requirement §2 places on act/msg themselves); `unfold` must not
  /// throw.
  template <typename T, typename Start, typename Fold>
  const T& cached_view(const Start& start, const Fold& fold,
                       Unfold<std::type_identity_t<T>> unfold = nullptr) const {
    CacheSlot<T>* slot = nullptr;
    if (cache_ != nullptr && cache_->tag == type_tag<T>() &&
        (cache_->count == count_ || cache_.use_count() == 1)) {
      slot = static_cast<CacheSlot<T>*>(cache_.get());
    } else {
      auto fresh = std::make_shared<CacheSlot<T>>();
      fresh->tag = type_tag<T>();
      fresh->value = start();
      if (unfold != nullptr) {
        fresh->unfold = unfold;
        fresh->rollback = &CacheSlot<T>::rollback_to;
      }
      slot = fresh.get();
      cache_ = std::move(fresh);
    }
    try {
      for (; slot->count < count_; ++slot->count) {
        fold(slot->value, (*entries_)[slot->count]);
      }
    } catch (...) {
      cache_.reset();
      throw;
    }
    return slot->value;
  }

 private:
  struct CacheBase {
    const void* tag = nullptr;
    std::size_t count = 0;
    /// Unfolds the view back to the first `new_count` of `entries`; null
    /// when the view has no `unfold`.
    void (*rollback)(CacheBase&, const std::vector<Bits>& entries,
                     std::size_t new_count) = nullptr;
  };
  template <typename T>
  struct CacheSlot final : CacheBase {
    T value{};
    Unfold<T> unfold = nullptr;

    static void rollback_to(CacheBase& base, const std::vector<Bits>& entries,
                            std::size_t new_count) {
      auto& slot = static_cast<CacheSlot&>(base);
      for (; slot.count > new_count; --slot.count) {
        slot.unfold(slot.value, entries[slot.count - 1]);
      }
    }
  };

  /// Bring a view that saw past `new_count` back to that prefix: unfold it
  /// in place when it can and nobody else holds it, drop it otherwise.
  /// Out of line, so truncate() stays a small inline fast path.
  void rewind_cache(std::size_t new_count);

  /// Address-unique tag per view type (replaces typeid/type_index).
  /// Deliberately non-const: identical-COMDAT folding (e.g. MSVC /OPT:ICF)
  /// may merge read-only instantiations across T, mutable data never folds.
  template <typename T>
  static const void* type_tag() noexcept {
    static char tag = 0;
    return &tag;
  }

  /// Make entries_ safe to push_back into: allocate on first use, and clone
  /// the live prefix when this board is a stale-prefix holder of shared
  /// storage (appending in place would clobber an entry another holder can
  /// still read).
  void own_tail() {
    if (entries_ == nullptr) {
      entries_ = std::make_shared<std::vector<Bits>>();
    } else if (count_ < entries_->size()) {
      if (entries_.use_count() == 1) {
        entries_->resize(count_);
      } else {
        auto fresh = std::make_shared<std::vector<Bits>>();
        fresh->reserve(entries_->capacity());
        fresh->assign(entries_->begin(),
                      entries_->begin() + static_cast<std::ptrdiff_t>(count_));
        entries_ = std::move(fresh);
      }
    }
  }

  std::shared_ptr<std::vector<Bits>> entries_;
  std::size_t count_ = 0;
  std::size_t total_bits_ = 0;
  /// Invariant: a cached view describes a prefix of this board.
  mutable std::shared_ptr<CacheBase> cache_;
};

}  // namespace wb
