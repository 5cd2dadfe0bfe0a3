// Canary twin: the same effects with the guard released first, and a
// consistent pairwise lock order.

fn fsync_after_release(&self) -> std::io::Result<()> {
    let file = {
        let inner = self.inner.lock();
        inner.file.try_clone()?
    };
    file.sync_all()
}

fn send_after_release(&self, job: Job) {
    let seq = {
        let queue = self.queue.lock();
        queue.next_seq()
    };
    self.tx.send((seq, job));
}

fn publish_after_release(&self, gen: Arc<Generation>) {
    {
        let writer = self.writer.lock();
        writer.prepare(&gen);
    }
    let old = std::mem::replace(&mut *self.generation.write(), gen);
    drop(old);
}

fn socket_write_after_release(&self, frame: &[u8]) {
    {
        let conns = self.conns.lock();
        conns.note_write(frame.len());
    }
    self.stream.write_all(frame);
    self.stream.flush();
}

fn order_ab(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
}

fn order_ab_again(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
}
