// Fixture: retention-discipline. Raw journal reads (JournalIn / VersionAt)
// outside the database must sit in a function that has already checked the
// retention class: under kNone and kDirtySet retention the raw entries do
// not exist, and an unguarded reader would silently see an empty history.
// detlint:pretend(src/core/retention_bad.cc)

namespace mobicache {

double EstimatorProbe::MeanGap(SimTime lo, SimTime hi) {
  double sum = 0.0;
  uint64_t n = 0;
  for (const UpdatedItem& ev : db_->JournalIn(lo, hi)) {  // detlint:expect(retention-discipline)
    sum += ev.updated_at;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

uint64_t EstimatorProbe::VersionOf(ItemId id) {
  return db_->VersionAt(id);  // detlint:expect(retention-discipline)
}

}  // namespace mobicache
