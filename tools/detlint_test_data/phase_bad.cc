// Fixture: phase-discipline. Code that runs inside the parallel shard
// phase (mu/ and the megacell shard loop) must not touch server-owned
// mutators — that would race the serial server phase, or diverge from the
// single-threaded replay order. Both spellings are caught: a typed
// receiver and an explicit Server:: qualifier.
// detlint:pretend(src/mu/phase_bad.cc)

namespace mobicache {

void MobileUnit::ReportDirectly(Server* server, const UplinkQueryInfo& info) {
  server->AccountUplinkQuery(info);  // detlint:expect(phase-discipline)
}

void MobileUnit::DrainDirectly(Server& server, uint64_t interval) {
  server.Broadcast(interval);  // detlint:expect(phase-discipline)
  Server::AcquireReportSlot();  // detlint:expect(phase-discipline)
}

}  // namespace mobicache
