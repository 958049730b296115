//! Thread ownership: a parallel call joins every helper it spawns
//! before it returns, and one call never runs on more than 64 threads.
//!
//! One test only: counting the process's threads is meaningless while
//! another test of this binary runs beside it.

#[cfg(target_os = "linux")]
#[test]
fn a_call_leaves_no_thread_behind_and_caps_its_threads() {
    use codesign_parallel::parallel_map;
    use std::collections::HashSet;
    use std::time::{Duration, Instant};

    let live = || {
        std::fs::read_dir("/proc/self/task")
            .expect("task dir")
            .count()
    };
    let before = live();
    let items: Vec<u64> = (0..64).collect();
    let out = parallel_map(&items, 4, |_, &x| x * 2);
    assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    // A joined thread has finished, but the kernel can list it for a
    // moment longer while it reaps it; a thread kept alive stays listed.
    let deadline = Instant::now() + Duration::from_secs(2);
    while live() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(live(), before, "a helper thread outlived its call");

    let ids = parallel_map(&[(); 200], 1000, |_, _| {
        // Hold each item briefly so every spawned helper gets to claim.
        std::thread::sleep(Duration::from_millis(1));
        std::thread::current().id()
    });
    let distinct: HashSet<_> = ids.into_iter().collect();
    assert!(
        distinct.len() <= 64,
        "{} threads in one call",
        distinct.len()
    );
}
