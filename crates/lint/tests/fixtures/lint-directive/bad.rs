// FAILS: a suppression without a justification and one naming an
// unknown rule are violations in their own right.
impl Node {
    fn f(&self) {
        // sirep-lint: allow(no-index-on-protocol-paths)
        let first = self.items[0];
        // sirep-lint: allow(not-a-real-rule): whatever
        self.other();
    }
}
