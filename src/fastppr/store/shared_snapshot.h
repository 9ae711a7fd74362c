#ifndef FASTPPR_STORE_SHARED_SNAPSHOT_H_
#define FASTPPR_STORE_SHARED_SNAPSHOT_H_

// Structural-sharing frozen row tables (DESIGN.md §6).
//
// The pooled-RCU snapshot model (PR 4) brought a frozen buffer up to
// date by REPLAYING the dirty feed into it — but every pooled buffer
// carried its own full copy of the row content, so the steady-state
// publish wrote ~2× the delta (two buffers in rotation) and the frozen
// tier held ~2 full copies of the store. This header replaces copies
// with sharing: a frozen table is an immutable chain of *extents* over
// a chunked root,
//
//   SharedRows = [delta_k] -> [delta_k-1] -> ... -> [root chunks]
//
// where the root splits the row space into fixed-size RowChunks held by
// shared_ptr (the per-chunk refcount), and each chain link overlays the
// rows one publish window dirtied. A publish allocates ONLY the window's
// delta (~1× the dirty content); every clean chunk is shared with the
// previous frozen epoch and is freed by its refcount the moment the
// last reader's pin drops.
//
// Reads walk the chain newest→oldest (binary search per link over the
// sorted dirty-row ids) and fall through to the root chunk — O(chain ·
// log(delta)) per row, with the chain bounded by Options::max_chain.
// When a publish would exceed that bound the builder *consolidates*:
// it either merges the whole chain into one union extent (scattered
// dirt: union << covered chunks) or rebases onto a new root that
// rebuilds only the covered chunks and shares every clean chunk pointer
// (clustered dirt: covered ≈ union). Both cost O(union), never O(table),
// and both reset the chain so lookup cost stays bounded.
//
// Thread contract: CapturedRows are produced (Capture* in
// segment_snapshot.h) and consumed (SharedRowBuilder::Publish) by ONE
// publishing thread at a time; published SharedRows are immutable and
// readable from any thread. SharedPublishStats fields are relaxed
// atomics because monitoring threads read them while a publish
// accounts into them.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fastppr/util/check.h"

namespace fastppr::snap {

/// One window's captured row content: the sorted, duplicate-free dense
/// row ids that changed plus their concatenated post-window content.
/// `full` marks a whole-table capture (rows empty; offsets indexes every
/// row 0..num_rows). Produced by Capture, moved into Publish — never
/// shared.
template <typename Word>
struct CapturedRows {
  std::vector<uint64_t> rows;     ///< dirty dense row ids (delta only)
  std::vector<uint64_t> offsets;  ///< row_count() + 1 arena offsets
  std::vector<Word> arena;        ///< concatenated row content
  bool full = false;

  std::size_t row_count() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::span<const Word> RowAt(std::size_t i) const {
    return std::span<const Word>(arena.data() + offsets[i],
                                 offsets[i + 1] - offsets[i]);
  }
  /// Heap bytes this capture materializes (content + row metadata) —
  /// the publish cost the builder accounts per publish kind.
  std::size_t ContentBytes() const {
    return arena.size() * sizeof(Word) + rows.size() * sizeof(uint64_t) +
           offsets.size() * sizeof(uint64_t);
  }
  void Clear() {
    rows.clear();
    offsets.clear();
    arena.clear();
    full = false;
  }
};

/// One immutable root chunk: a fixed contiguous row range
/// [first_row, first_row + num_rows) with packed content. Shared across
/// frozen epochs via shared_ptr — the use_count IS the chunk refcount,
/// and the last unpinning reader frees it.
template <typename Word>
class RowChunk {
 public:
  explicit RowChunk(uint64_t first_row) : first_row_(first_row) {
    offsets_.push_back(0);
  }

  uint64_t first_row() const { return first_row_; }
  std::size_t num_rows() const { return offsets_.size() - 1; }
  std::span<const Word> Row(std::size_t local) const {
    return std::span<const Word>(arena_.data() + offsets_[local],
                                 offsets_[local + 1] - offsets_[local]);
  }
  void Append(std::span<const Word> content) {
    arena_.insert(arena_.end(), content.begin(), content.end());
    offsets_.push_back(static_cast<uint32_t>(arena_.size()));
  }
  std::size_t MemoryBytes() const {
    return arena_.size() * sizeof(Word) +
           offsets_.size() * sizeof(uint32_t);
  }

 private:
  uint64_t first_row_;
  std::vector<uint32_t> offsets_;  ///< num_rows + 1 (chunk-local arena)
  std::vector<Word> arena_;
};

template <typename Word>
class SharedRowBuilder;

/// An immutable frozen row table at one publish epoch: an extent chain
/// over shared root chunks (see the header comment). Copyable handle;
/// all reads are plain loads on immutable state.
template <typename Word>
class SharedRows {
 public:
  uint64_t epoch() const { return epoch_; }
  std::size_t num_rows() const { return core_->num_rows; }
  std::span<const Word> Row(uint64_t r) const { return core_->Row(r); }

  /// Extents stacked on the root (0 = reads hit chunks directly).
  uint32_t chain_length() const { return core_->chain_len; }

  /// Heap bytes REACHABLE from this view: chain extents plus every root
  /// chunk. Chunks shared with other epochs are counted in full (each
  /// view could be the last one holding them).
  std::size_t MemoryBytes() const {
    std::size_t bytes = 0;
    const Core* c = core_.get();
    for (; c != c->root; c = c->parent.get()) {
      bytes += c->delta.ContentBytes();
    }
    for (const auto& chunk : c->chunks) bytes += chunk->MemoryBytes();
    return bytes;
  }
  /// Row metadata alone (offsets + dirty-row ids), excluding content.
  std::size_t row_table_bytes() const {
    std::size_t bytes = 0;
    const Core* c = core_.get();
    for (; c != c->root; c = c->parent.get()) {
      bytes += c->delta.rows.size() * sizeof(uint64_t) +
               c->delta.offsets.size() * sizeof(uint64_t);
    }
    for (const auto& chunk : c->chunks) {
      bytes += (chunk->num_rows() + 1) * sizeof(uint32_t);
    }
    return bytes;
  }

  /// Test hooks: the root chunk set (refcount audits in
  /// snapshot_memory_test assert sharing across epochs through these).
  std::size_t num_chunks() const { return core_->root->chunks.size(); }
  std::shared_ptr<const RowChunk<Word>> chunk_ptr(std::size_t i) const {
    return core_->root->chunks[i];
  }

 private:
  friend class SharedRowBuilder<Word>;

  struct Core {
    std::shared_ptr<const Core> parent;  ///< null for roots
    const Core* root = nullptr;          ///< cached; == this for roots
    CapturedRows<Word> delta;            ///< this extent's rows (non-root)
    /// Root content (roots only): chunk i covers rows
    /// [i * rows_per_chunk, ...).
    std::vector<std::shared_ptr<const RowChunk<Word>>> chunks;
    std::size_t num_rows = 0;
    std::size_t rows_per_chunk = 1;
    uint32_t chain_len = 0;

    std::span<const Word> Row(uint64_t r) const {
      for (const Core* c = this; c != c->root; c = c->parent.get()) {
        const auto& rows = c->delta.rows;
        const auto it = std::lower_bound(rows.begin(), rows.end(), r);
        if (it != rows.end() && *it == r) {
          return c->delta.RowAt(
              static_cast<std::size_t>(it - rows.begin()));
        }
      }
      const RowChunk<Word>& chunk = *root->chunks[r / root->rows_per_chunk];
      return chunk.Row(static_cast<std::size_t>(r - chunk.first_row()));
    }
  };

  SharedRows(std::shared_ptr<const Core> core, uint64_t epoch)
      : core_(std::move(core)), epoch_(epoch) {}

  std::shared_ptr<const Core> core_;
  uint64_t epoch_ = 0;
};

/// Publish-volume accounting for the `publish_bytes_per_delta_byte`
/// contract. `presented_*` is the DENOMINATOR: the dirty volume the feeds
/// handed the capture (duplicate-inclusive — 8 id bytes + current row
/// content per feed entry — exactly the per-entry replay work the
/// pooled model paid). `bytes_delta/merge/rebase` is the NUMERATOR: what
/// the structural-sharing publishes actually allocated. Full captures
/// (first publish, feed overflow, forced rebuild) are tracked separately
/// in `bytes_full` — both models pay a full copy there.
struct SharedPublishStats {
  std::atomic<uint64_t> publishes_full{0};
  std::atomic<uint64_t> publishes_delta{0};
  std::atomic<uint64_t> merges{0};
  std::atomic<uint64_t> rebases{0};
  std::atomic<uint64_t> bytes_full{0};
  std::atomic<uint64_t> bytes_delta{0};
  std::atomic<uint64_t> bytes_merge{0};
  std::atomic<uint64_t> bytes_rebase{0};
  std::atomic<uint64_t> presented_entries{0};
  std::atomic<uint64_t> presented_bytes{0};

  struct Snapshot {
    uint64_t publishes_full = 0;
    uint64_t publishes_delta = 0;
    uint64_t merges = 0;
    uint64_t rebases = 0;
    uint64_t bytes_full = 0;
    uint64_t bytes_delta = 0;
    uint64_t bytes_merge = 0;
    uint64_t bytes_rebase = 0;
    uint64_t presented_entries = 0;
    uint64_t presented_bytes = 0;

    /// Bytes the delta publishes allocated (consolidations included —
    /// they are part of the amortized delta cost).
    uint64_t publish_delta_bytes() const {
      return bytes_delta + bytes_merge + bytes_rebase;
    }
    void Accumulate(const Snapshot& o) {
      publishes_full += o.publishes_full;
      publishes_delta += o.publishes_delta;
      merges += o.merges;
      rebases += o.rebases;
      bytes_full += o.bytes_full;
      bytes_delta += o.bytes_delta;
      bytes_merge += o.bytes_merge;
      bytes_rebase += o.bytes_rebase;
      presented_entries += o.presented_entries;
      presented_bytes += o.presented_bytes;
    }
  };

  Snapshot Read() const {
    Snapshot s;
    s.publishes_full = publishes_full.load(std::memory_order_relaxed);
    s.publishes_delta = publishes_delta.load(std::memory_order_relaxed);
    s.merges = merges.load(std::memory_order_relaxed);
    s.rebases = rebases.load(std::memory_order_relaxed);
    s.bytes_full = bytes_full.load(std::memory_order_relaxed);
    s.bytes_delta = bytes_delta.load(std::memory_order_relaxed);
    s.bytes_merge = bytes_merge.load(std::memory_order_relaxed);
    s.bytes_rebase = bytes_rebase.load(std::memory_order_relaxed);
    s.presented_entries =
        presented_entries.load(std::memory_order_relaxed);
    s.presented_bytes = presented_bytes.load(std::memory_order_relaxed);
    return s;
  }
};

/// Single-threaded (one publisher) builder turning a stream of
/// CapturedRows into the SharedRows chain of one row table. Holds the
/// head so each publish chains on the previous frozen epoch.
template <typename Word>
class SharedRowBuilder {
 public:
  struct Options {
    /// Rows per root chunk: the sharing granularity. One dirty row
    /// re-materializes at most one chunk at rebase time, so smaller
    /// chunks mean less collateral copying per consolidation (32 keeps
    /// the measured publish_bytes_per_delta_byte comfortably under the
    /// 1.5x contract on power-law churn).
    std::size_t rows_per_chunk = 32;
    /// Max extents stacked on the root before a publish consolidates
    /// (bounds per-row lookup cost and chain memory; the rebase cost is
    /// amortized over this many delta publishes — 16 lands the measured
    /// publish_bytes_per_delta_byte around 1.35x against the 1.5x
    /// contract while keeping reads to at most 16 small binary
    /// searches).
    uint32_t max_chain = 16;
  };

  explicit SharedRowBuilder(Options opts = Options{}) : opts_(opts) {
    FASTPPR_CHECK(opts_.rows_per_chunk >= 1 && opts_.max_chain >= 1);
  }

  SharedPublishStats* stats() { return stats_.get(); }
  const SharedPublishStats& stats() const { return *stats_; }

  /// Publishes one captured window as a new frozen epoch. The first
  /// publish (and any cap.full) must carry a full capture; otherwise the
  /// capture's rows overlay the previous head. Epochs must be
  /// monotonically non-decreasing (a forced re-publish of the same
  /// window re-stamps the same epoch).
  std::shared_ptr<const SharedRows<Word>> Publish(CapturedRows<Word>&& cap,
                                                 uint64_t epoch) {
    using Core = typename SharedRows<Word>::Core;
    FASTPPR_CHECK_MSG(epoch >= last_epoch_,
                      "snapshot publish epoch moved backwards");
    last_epoch_ = epoch;
    std::shared_ptr<const Core> core;
    if (cap.full || head_ == nullptr) {
      core = BuildRoot(cap);
    } else if (cap.row_count() == 0) {
      // Nothing changed: share the head wholesale — zero allocation,
      // zero chain growth.
      core = head_;
      stats_->publishes_delta.fetch_add(1, std::memory_order_relaxed);
    } else if (head_->chain_len + 1 > opts_.max_chain) {
      core = Consolidate(head_, std::move(cap));
    } else {
      auto c = std::make_shared<Core>();
      c->parent = head_;
      c->root = head_->root;
      c->num_rows = head_->num_rows;
      c->rows_per_chunk = head_->rows_per_chunk;
      c->chain_len = head_->chain_len + 1;
      stats_->publishes_delta.fetch_add(1, std::memory_order_relaxed);
      stats_->bytes_delta.fetch_add(cap.ContentBytes(),
                                   std::memory_order_relaxed);
      c->delta = std::move(cap);
      core = std::move(c);
    }
    head_ = core;
    return std::shared_ptr<const SharedRows<Word>>(
        new SharedRows<Word>(std::move(core), epoch));
  }

 private:
  using Core = typename SharedRows<Word>::Core;

  std::shared_ptr<const Core> BuildRoot(const CapturedRows<Word>& cap) {
    FASTPPR_CHECK_MSG(cap.full,
                      "first shared-row publish must be a full capture");
    auto c = std::make_shared<Core>();
    c->root = c.get();
    c->num_rows = cap.row_count();
    c->rows_per_chunk = opts_.rows_per_chunk;
    c->chain_len = 0;
    std::size_t bytes = 0;
    for (std::size_t first = 0; first < c->num_rows;
         first += opts_.rows_per_chunk) {
      auto chunk = std::make_shared<RowChunk<Word>>(first);
      const std::size_t end =
          std::min(first + opts_.rows_per_chunk, c->num_rows);
      for (std::size_t r = first; r < end; ++r) chunk->Append(cap.RowAt(r));
      bytes += chunk->MemoryBytes();
      c->chunks.push_back(std::move(chunk));
    }
    stats_->publishes_full.fetch_add(1, std::memory_order_relaxed);
    stats_->bytes_full.fetch_add(bytes, std::memory_order_relaxed);
    return c;
  }

  /// Chain is at its bound: fold it plus `cap` into either a rebased
  /// root (rebuild covered chunks, share the rest — cheap when dirt
  /// clusters) or one union extent on the old root (cheap when dirt
  /// scatters across many chunks). Both reset chain_len; the union
  /// extent can only grow until a rebase wins, so lookup and memory stay
  /// bounded.
  std::shared_ptr<const Core> Consolidate(
      const std::shared_ptr<const Core>& head, CapturedRows<Word>&& cap) {
    const Core* root = head->root;
    const std::size_t rpc = root->rows_per_chunk;

    std::vector<uint64_t> rows(cap.rows);
    for (const Core* c = head.get(); c != c->root; c = c->parent.get()) {
      rows.insert(rows.end(), c->delta.rows.begin(), c->delta.rows.end());
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

    // Newest wins: this window's capture first, then the chain
    // newest→oldest, then the root chunk.
    const auto Lookup = [&](uint64_t r) -> std::span<const Word> {
      const auto it =
          std::lower_bound(cap.rows.begin(), cap.rows.end(), r);
      if (it != cap.rows.end() && *it == r) {
        return cap.RowAt(static_cast<std::size_t>(it - cap.rows.begin()));
      }
      return head->Row(r);
    };

    // One chain lookup per union row; both consolidations copy from
    // these spans (all point into `cap`, the chain or the root, which
    // outlive this call).
    std::vector<std::span<const Word>> content;
    content.reserve(rows.size());
    std::size_t union_words = 0;
    for (uint64_t r : rows) {
      content.push_back(Lookup(r));
      union_words += content.back().size();
    }
    const std::size_t union_bytes =
        union_words * sizeof(Word) + rows.size() * 2 * sizeof(uint64_t);

    std::vector<uint64_t> covered;  // distinct chunk indices, ascending
    for (uint64_t r : rows) {
      const uint64_t ci = r / rpc;
      if (covered.empty() || covered.back() != ci) covered.push_back(ci);
    }
    std::size_t covered_bytes = 0;
    for (uint64_t ci : covered) {
      covered_bytes += root->chunks[ci]->MemoryBytes();
    }

    if (covered_bytes <= 2 * union_bytes) {
      // REBASE: new root sharing every clean chunk pointer.
      auto c = std::make_shared<Core>();
      c->root = c.get();
      c->num_rows = root->num_rows;
      c->rows_per_chunk = rpc;
      c->chain_len = 0;
      c->chunks = root->chunks;
      std::size_t bytes = 0;
      std::size_t u = 0;  // cursor into the sorted union rows
      for (uint64_t ci : covered) {
        const std::size_t first = static_cast<std::size_t>(ci) * rpc;
        const std::size_t end = std::min(first + rpc, root->num_rows);
        const RowChunk<Word>& old = *root->chunks[ci];
        auto chunk = std::make_shared<RowChunk<Word>>(first);
        for (std::size_t r = first; r < end; ++r) {
          if (u < rows.size() && rows[u] == r) {
            chunk->Append(content[u++]);
          } else {
            chunk->Append(old.Row(r - first));
          }
        }
        bytes += chunk->MemoryBytes();
        c->chunks[ci] = std::move(chunk);
      }
      stats_->rebases.fetch_add(1, std::memory_order_relaxed);
      stats_->bytes_rebase.fetch_add(bytes, std::memory_order_relaxed);
      return c;
    }

    // MERGE: one union extent directly on the (shared) old root.
    std::shared_ptr<const Core> root_sp;
    for (const Core* c = head.get();; c = c->parent.get()) {
      if (c->parent.get() == root) {
        root_sp = c->parent;
        break;
      }
    }
    CapturedRows<Word> merged;
    merged.rows = std::move(rows);
    merged.offsets.reserve(merged.rows.size() + 1);
    merged.offsets.push_back(0);
    merged.arena.reserve(union_words);
    for (const std::span<const Word> row : content) {
      merged.arena.insert(merged.arena.end(), row.begin(), row.end());
      merged.offsets.push_back(merged.arena.size());
    }
    auto c = std::make_shared<Core>();
    c->parent = std::move(root_sp);
    c->root = root;
    c->num_rows = root->num_rows;
    c->rows_per_chunk = rpc;
    c->chain_len = 1;
    stats_->merges.fetch_add(1, std::memory_order_relaxed);
    stats_->bytes_merge.fetch_add(merged.ContentBytes(),
                                 std::memory_order_relaxed);
    c->delta = std::move(merged);
    return c;
  }

  Options opts_;
  std::unique_ptr<SharedPublishStats> stats_ =
      std::make_unique<SharedPublishStats>();
  std::shared_ptr<const Core> head_;
  uint64_t last_epoch_ = 0;
};

}  // namespace fastppr::snap

#endif  // FASTPPR_STORE_SHARED_SNAPSHOT_H_
