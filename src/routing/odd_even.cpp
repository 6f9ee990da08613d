#include "routing/odd_even.hpp"

namespace genoc {

namespace {

bool odd(std::int32_t x) { return (x % 2) != 0; }

}  // namespace

/// Port-level Odd-Even (after Chiu's ROUTE function). The restricted turns
/// are EN/ES (only legal in odd columns) and NW/SW (only legal in even
/// columns); WN/WS and NE/SE are free. The in-port name tells us how the
/// packet is travelling, which replaces Chiu's source-column bookkeeping:
///  - entering vertically from a Local IN port is an injection, not a turn;
///  - continuing along a vertical flow is not a turn either;
///  - a westbound or injected packet may only start vertical movement in an
///    even column when west hops remain (it must later take an NW/SW turn
///    in that same column);
///  - an eastbound move is forbidden when it would strand the packet one
///    hop west of an even destination column with vertical hops remaining
///    (the EN/ES turn there would be illegal).
void OddEvenRouting::append_next_hops(const Port& current, const Port& dest,
                                      std::vector<Port>& out) const {
  // OUT ports forward along the link; Local OUT ports terminate.
  if (current.dir == Direction::kOut) {
    if (current.name != PortName::kLocal) {
      out.push_back(mesh().next_in(current));
    }
    return;
  }
  if (current.x == dest.x && current.y == dest.y) {
    out.push_back(trans(current, PortName::kLocal, Direction::kOut));
    return;
  }
  const std::int32_t ex = dest.x - current.x;
  const std::int32_t ey = dest.y - current.y;
  const bool odd_column = odd(current.x);

  auto vertical = [&]() {
    return trans(current, ey < 0 ? PortName::kNorth : PortName::kSouth,
                 Direction::kOut);
  };
  auto east = [&] { return trans(current, PortName::kEast, Direction::kOut); };
  auto west = [&] { return trans(current, PortName::kWest, Direction::kOut); };
  // Going east is safe unless the packet would arrive at an even
  // destination column still needing an (illegal) EN/ES turn there.
  const bool east_safe = (ey == 0) || (ex > 1) || odd(dest.x);

  switch (current.name) {
    case PortName::kLocal:
      // Injection: entering any direction is not a turn, but the packet
      // must not be painted into a corner.
      if (ex > 0) {
        if (ey != 0) {
          out.push_back(vertical());
        }
        if (east_safe) {
          out.push_back(east());
        }
      } else if (ex < 0) {
        if (ey != 0 && !odd_column) {
          out.push_back(vertical());
        }
        out.push_back(west());
      } else {
        out.push_back(vertical());  // ey != 0 here (dest node handled)
      }
      break;

    case PortName::kWest:
      // Eastbound packet. EN/ES turns need an odd column.
      if (ex == 0) {
        // Arrived at the destination column; the east_safe guard ensures
        // this only happens where the turn is legal.
        out.push_back(vertical());
      } else {
        if (ey != 0 && odd_column) {
          out.push_back(vertical());
        }
        if (east_safe) {
          out.push_back(east());
        }
      }
      break;

    case PortName::kEast:
      // Westbound packet. WN/WS turns are free, but starting vertical
      // movement with west hops remaining requires an even column (the
      // NW/SW turn back happens in the same column).
      if (ex == 0) {
        out.push_back(vertical());
      } else {
        if (ey != 0 && !odd_column) {
          out.push_back(vertical());
        }
        out.push_back(west());
      }
      break;

    case PortName::kNorth:
    case PortName::kSouth:
      // Vertical packet. Continuing straight is not a turn; NE/SE east
      // turns are free (modulo the east_safe guard); NW/SW west turns need
      // an even column.
      if (ey != 0) {
        out.push_back(vertical());
      }
      if (ex > 0 && east_safe) {
        out.push_back(east());
      }
      if (ex < 0 && !odd_column) {
        out.push_back(west());
      }
      break;
  }
}

}  // namespace genoc
