// Canary: `lock-discipline` must flag guards held across blocking effects
// (fsync, channel send, generation publish, socket write) and inconsistent
// pairwise lock order.

fn fsync_under_guard(&self) -> std::io::Result<()> {
    let inner = self.inner.lock();
    inner.file.sync_all()
}

fn send_under_guard(&self, job: Job) {
    let queue = self.queue.lock();
    self.tx.send(job);
    drop(queue);
}

fn publish_under_guard(&self, gen: Arc<Generation>) {
    let writer = self.writer.lock();
    *self.generation.write() = gen;
    drop(writer);
}

fn socket_write_under_guard(&self, frame: &[u8]) {
    let conns = self.conns.lock();
    self.stream.write_all(frame);
    drop(conns);
}

fn order_ab(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
}

fn order_ba(&self) {
    let b = self.beta.lock();
    let a = self.alpha.lock();
}
