// Fixture: alloc-event-path, delivery consumption reached transitively.
// The consumption event (ConsumeDelivery) and the wake-horizon scan it
// calls (WakeHorizon) inherit the allocation-free contract through the
// call chain from Deliver, a configured hot root — neither name appears in
// any hand-maintained list. The same calls in a cold-path member (Start's
// one-time sizing, unreachable from a root) are legal.
// detlint:pretend(src/server/server.cc)

#include <limits>
#include <memory>
#include <vector>

namespace mobicache {

void Server::Deliver(std::shared_ptr<const Report> report, double listen,
                     SimTime done) {
  ConsumeDelivery(report, listen, done);
}

void Server::ConsumeDelivery(std::shared_ptr<const Report> report,
                             double listen, SimTime done) {
  delivered_log_.push_back(done);  // detlint:expect(alloc-event-path)
  uint64_t awake = 0;
  (void)WakeHorizon(0, &awake);
  (void)report;
  (void)listen;
}

SimTime Server::WakeHorizon(uint64_t interval, uint64_t* awake) const {
  auto s = std::make_shared<WakeIndex>();  // detlint:expect(alloc-event-path)
  (void)s;
  (void)interval;
  (void)awake;
  return std::numeric_limits<SimTime>::infinity();
}

Status Server::Start() {
  // One-time arena sizing before any event runs; Deliver never reaches
  // this, so no directive is needed — it simply is not hot.
  report_arena_.reserve(4);
  delivered_log_.reserve(1024);
  return Status::OK();
}

}  // namespace mobicache
