// PASSES: lookups are fallible and a miss routes through DbError.
impl Node {
    fn apply(&self, k: usize) -> Result<(), DbError> {
        let first = self.ws.items.first().ok_or(DbError::Internal(msg))?;
        let entry = self.entries.get(&k).ok_or(DbError::Internal(msg))?;
        let head = self.queue.front().ok_or(DbError::Internal(msg))?;
        Ok(())
    }
}
