//! Seeded violation through a recursive call cycle: the fixpoint must
//! terminate and still surface the flow into the scheduler sink.

fn ping(depth: u32) -> u64 {
    if depth == 0 {
        Instant::now().elapsed().as_nanos() as u64
    } else {
        pong(depth - 1)
    }
}

fn pong(depth: u32) -> u64 {
    ping(depth)
}

fn schedule(sched: &mut Sched) {
    sched.place_attempts(0, ping(3));
}
