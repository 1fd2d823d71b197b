// Fixture: phase-discipline, clean twin. Shard-phase code logs locally;
// the barrier replay (MegaCell::ReplayWindow) is the sanctioned crossing
// that applies the merged shard logs to the server, and a reviewed helper
// may opt in with a function-level allow.
// detlint:pretend(src/mu/phase_good.cc)

namespace mobicache {

void MobileUnit::ReportLocally(const UplinkQueryInfo& info) {
  log_->Append(info);  // shard-local: legal
}

void MegaCell::ReplayWindow(Server* server) {
  for (const LogRecord& rec : merged_) {
    server->AccountUplinkQuery(rec.info);  // the sanctioned crossing
  }
}

void MegaCell::StepAfterBarrier(Server* server, uint64_t interval) {
  // detlint:allow-function(phase-discipline) reviewed post-barrier helper
  server->Broadcast(interval);
}

}  // namespace mobicache
