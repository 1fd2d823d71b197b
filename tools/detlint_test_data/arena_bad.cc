// Fixture: alloc-event-path, transitive closure over the broadcast path.
// The consumption and arena helpers are NOT hand-listed anywhere: they inherit
// the allocation-free contract because Broadcast (a configured hot root)
// calls them. A helper the root never reaches stays cold, and the arena's
// own one-time growth is the sanctioned exception carrying an explicit
// allow.
// detlint:pretend(src/server/server.cc)

#include <memory>
#include <vector>

namespace mobicache {

struct Report {};

void Server::Broadcast(uint64_t interval) {
  auto report = std::make_shared<Report>();  // detlint:expect(alloc-event-path)
  ConsumeDelivery(*report, 1.0);
  AcquireReportSlot();
  (void)interval;
}

uint64_t Server::ConsumeDelivery(const Report& report, double listen_seconds) {
  delivered_.push_back(&report);  // detlint:expect(alloc-event-path)
  (void)listen_seconds;
  return 1;
}

std::shared_ptr<Report>& Server::AcquireReportSlot() {
  // Sanctioned cold-path arena growth. detlint:allow(alloc-event-path)
  report_arena_.push_back(std::make_shared<Report>());
  return report_arena_.back();
}

void Server::AccountUplinkQuery(const UplinkQueryInfo& info) {
  audit_log_.push_back(info);  // unreachable from any hot root: legal
}

}  // namespace mobicache
