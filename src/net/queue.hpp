#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>

#include "net/node_id.hpp"
#include "net/packet.hpp"

namespace mts::net {

/// An entry waiting at the link layer: the packet plus its MAC-level
/// next hop (kBroadcastId for floods).
struct QueueItem {
  Packet packet;
  NodeId next_hop = kBroadcastId;
};

/// Priority interface queue in the style of ns-2's `Queue/DropTail
/// PriQueue`: routing-control packets go to a high-priority band and are
/// never dropped in favour of data; the total occupancy is capped (ns-2
/// wireless default: 50 packets).
///
/// Drop policy when full:
///  * arriving data         -> dropped (classic drop-tail);
///  * arriving control      -> the *newest data* packet is evicted to
///                             make room; if the queue is all control,
///                             the arriving packet is dropped.
class PriQueue {
 public:
  explicit PriQueue(std::size_t capacity = 50) : capacity_(capacity) {}

  /// Attempts to enqueue.  Returns the packet that was dropped to make
  /// room (which may be the offered one), or nullopt when nothing was
  /// dropped.
  std::optional<QueueItem> enqueue(QueueItem item);

  /// Removes and returns the next item: control band first, FIFO within
  /// a band.  Returns nullopt when empty.
  std::optional<QueueItem> dequeue();

  /// Removes all queued items whose next hop is `hop`, invoking `sink`
  /// on each (used when a link is declared broken).  Returns the count.
  std::size_t drain_next_hop(NodeId hop,
                             const std::function<void(QueueItem&&)>& sink);

  /// Removes queued *data* items addressed (end-to-end) to `dst`,
  /// invoking `sink` on each.  Used by DSR salvaging.
  std::size_t drain_dst(NodeId dst,
                        const std::function<void(QueueItem&&)>& sink);

  [[nodiscard]] std::size_t size() const {
    return control_.size() + data_.size();
  }
  [[nodiscard]] bool empty() const { return control_.empty() && data_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t control_size() const { return control_.size(); }
  [[nodiscard]] std::size_t data_size() const { return data_.size(); }

 private:
  std::size_t capacity_;
  std::deque<QueueItem> control_;
  std::deque<QueueItem> data_;
};

}  // namespace mts::net
