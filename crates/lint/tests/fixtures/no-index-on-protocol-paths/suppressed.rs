// PASSES: the accessor's documented panic carries a justification.
impl Cluster {
    fn node(&self, k: usize) -> Node {
        // sirep-lint: allow(no-index-on-protocol-paths): accessor contract — a replica id out of range is harness misuse, panicking here is the documented behavior
        self.nodes[k].clone()
    }
}
