// FAILS: index expressions on a protocol path — a slice, a map and a
// deque. Clippy passes the last two.
impl Node {
    fn apply(&self, k: usize) {
        let first = self.ws.items[0];
        let entry = self.entries[&k];
        let head = self.queue[0];
    }
}
