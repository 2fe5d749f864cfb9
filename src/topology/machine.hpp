// Physical organization of the Titan supercomputer (paper Fig. 1).
//
// Titan is built from 200 Cray XK7 cabinets arranged on the machine-room
// floor as 25 rows x 8 columns.  Each cabinet holds 3 cages; each cage
// holds 8 blades (slots); each blade holds 4 nodes; each node pairs one
// 16-core AMD Opteron 6274 with one NVIDIA K20X GPU, and every two nodes
// share one Gemini router.  That gives 200 * 3 * 8 * 4 = 19,200 node slots,
// of which 18,688 are GPU compute nodes; the remaining 512 are service/IO
// nodes (128 service blades), which we place deterministically.
//
// Addressing follows Cray cnames: "c{X}-{Y}c{C}s{S}n{N}" where X is the
// cabinet's position along a row (0..24), Y the row (0..7), C the cage
// (0..2, 0 = bottom), S the slot/blade (0..7) and N the node within the
// blade (0..3).
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace titan::topology {

inline constexpr int kCabinetGridX = 25;  ///< cabinets per row (paper: "25 rows")
inline constexpr int kCabinetGridY = 8;   ///< number of rows (paper: "8 columns")
inline constexpr int kCabinets = kCabinetGridX * kCabinetGridY;  // 200
inline constexpr int kCagesPerCabinet = 3;
inline constexpr int kBladesPerCage = 8;
inline constexpr int kNodesPerBlade = 4;
inline constexpr int kNodesPerGemini = 2;  ///< two nodes share one Gemini router
inline constexpr int kNodesPerCage = kBladesPerCage * kNodesPerBlade;        // 32
inline constexpr int kNodesPerCabinet = kCagesPerCabinet * kNodesPerCage;    // 96
inline constexpr int kNodeSlots = kCabinets * kNodesPerCabinet;              // 19,200
inline constexpr int kServiceNodes = 512;
inline constexpr int kComputeNodes = kNodeSlots - kServiceNodes;             // 18,688
inline constexpr int kServiceBlades = kServiceNodes / kNodesPerBlade;        // 128

/// Dense node identifier in [0, kNodeSlots).
using NodeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;

/// Fully decomposed physical location of a node.
struct NodeLocation {
  int cab_x = 0;  ///< cabinet position along its row, 0..24
  int cab_y = 0;  ///< row, 0..7
  int cage = 0;   ///< 0..2, 0 = bottom cage (coolest), 2 = top cage (hottest)
  int slot = 0;   ///< blade within the cage, 0..7
  int node = 0;   ///< node within the blade, 0..3

  friend constexpr auto operator<=>(const NodeLocation&, const NodeLocation&) = default;

  [[nodiscard]] constexpr int cabinet_index() const noexcept {
    return cab_y * kCabinetGridX + cab_x;
  }
  [[nodiscard]] constexpr bool valid() const noexcept {
    return cab_x >= 0 && cab_x < kCabinetGridX && cab_y >= 0 && cab_y < kCabinetGridY &&
           cage >= 0 && cage < kCagesPerCabinet && slot >= 0 && slot < kBladesPerCage &&
           node >= 0 && node < kNodesPerBlade;
  }
};

/// NodeId -> physical location (total, bijective over valid ids).
[[nodiscard]] constexpr NodeLocation locate(NodeId id) noexcept {
  NodeLocation loc;
  int rest = id;
  loc.node = rest % kNodesPerBlade;
  rest /= kNodesPerBlade;
  loc.slot = rest % kBladesPerCage;
  rest /= kBladesPerCage;
  loc.cage = rest % kCagesPerCabinet;
  rest /= kCagesPerCabinet;
  loc.cab_x = rest % kCabinetGridX;
  loc.cab_y = rest / kCabinetGridX;
  return loc;
}

/// Physical location -> NodeId (inverse of locate()).
[[nodiscard]] constexpr NodeId node_id(const NodeLocation& loc) noexcept {
  return static_cast<NodeId>(
      (((loc.cab_y * kCabinetGridX + loc.cab_x) * kCagesPerCabinet + loc.cage) * kBladesPerCage +
       loc.slot) *
          kNodesPerBlade +
      loc.node);
}

/// Index of the Gemini router serving a node.  Nodes 0,1 of a blade share
/// one router; nodes 2,3 share the other.
[[nodiscard]] constexpr int gemini_index(NodeId id) noexcept { return id / kNodesPerGemini; }

/// True if the node slot hosts a service/IO node (no GPU).
///
/// Model: Titan dedicates 128 blades to service nodes.  We assign slot 0 of
/// cage 0 in cabinets with even cabinet_index to service duty (100 blades),
/// plus slot 4 of cage 0 in cabinets whose index is a nonzero multiple of 7
/// (28 blades) -> exactly 128 service blades / 512 nodes.
/// The precise placement is a modeling choice (real Titan interleaves
/// service blades through the torus); what matters for the analyses is that
/// service nodes are spread across the machine and carry no GPU.
[[nodiscard]] constexpr bool is_service_node(NodeId id) noexcept {
  const NodeLocation loc = locate(id);
  if (loc.cage != 0) return false;
  const int cab = loc.cabinet_index();
  if (loc.slot == 0 && cab % 2 == 0) return true;
  if (loc.slot == 4 && cab % 7 == 0 && cab != 0) return true;
  return false;
}

/// Number of GPU compute nodes (counts non-service slots; equals
/// kComputeNodes by construction, verified in tests).
[[nodiscard]] int compute_node_count() noexcept;

/// Longest cname append_cname writes (a longer one, possible only for
/// out-of-range coordinates, is cut to this length); a valid location's
/// cname is far shorter.
inline constexpr std::size_t kMaxCnameChars = 31;

/// Format a Cray cname, e.g. "c12-3c1s4n2".
[[nodiscard]] std::string cname(NodeId id);
[[nodiscard]] std::string cname(const NodeLocation& loc);
/// Same format, appended to `out` (no temporary string).
void append_cname(std::string& out, const NodeLocation& loc);

/// Parse a Cray cname.  Returns std::nullopt on malformed input or
/// out-of-range coordinates.
[[nodiscard]] std::optional<NodeLocation> parse_cname(std::string_view text);

}  // namespace titan::topology
