// FAILS: a suppression without a justification and one naming an
// unknown rule are violations in their own right.
impl Node {
    fn f(&self) {
        // sirep-lint: allow(journal-gauge-under-lock)
        self.journal.record(event);
        // sirep-lint: allow(not-a-real-rule): whatever
        self.other();
    }
}
