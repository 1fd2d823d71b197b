// Brute-force reference for Database window queries, independent of the
// engine under test: it reads each item's live slab state and nothing else.

#ifndef MOBICACHE_TESTS_WINDOW_ORACLE_H_
#define MOBICACHE_TESTS_WINDOW_ORACLE_H_

#include <vector>

#include "db/database.h"

namespace mobicache {

/// Every id updated at least once whose latest update lies in (lo, hi],
/// with that time, in ascending id order: the Eq. 1/2 report list.
inline std::vector<UpdatedItem> WindowOracle(const Database& db, SimTime lo,
                                             SimTime hi) {
  std::vector<UpdatedItem> out;
  for (ItemId id = 0; id < db.size(); ++id) {
    const SimTime t = db.LastUpdateOf(id);
    if (db.VersionOf(id) > 0 && lo < t && t <= hi) {
      out.push_back(UpdatedItem{id, t});
    }
  }
  return out;
}

}  // namespace mobicache

#endif  // MOBICACHE_TESTS_WINDOW_ORACLE_H_
