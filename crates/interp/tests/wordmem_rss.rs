//! A machine's memory image becomes resident only where it is written.
//! Its own test binary, so no concurrent test moves the process's RSS.

use guardspec_interp::Machine;

/// Resident set size of this process in KB, from `/proc/self/status`.
fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn untouched_image_is_not_resident() {
    let Some(start) = vm_rss_kb() else {
        return; // no procfs: nothing to measure
    };

    // A 256 MB image costs next to nothing until it is written.
    const WORDS: u64 = 32 << 20;
    let mut m = Machine::new(WORDS);
    m.store(WORDS as i64 - 1, 1);
    let mapped = vm_rss_kb().unwrap();
    assert!(
        mapped < start + 8 * 1024,
        "a 256 MB image made {} KB resident before it was written",
        mapped - start
    );
    // Writing one word per 4 KB page of the first 16 MB makes those pages
    // resident.
    for a in (0..(2 << 20) as i64).step_by(512) {
        m.store(a, a);
    }
    let written = vm_rss_kb().unwrap();
    assert!(
        written >= mapped + 14 * 1024,
        "16 MB of written pages added only {} KB",
        written.saturating_sub(mapped)
    );
    drop(m);

    // The same holds for an image that follows a freed one.  On the heap
    // it would not: freeing a 24 MB block raises glibc's dynamic mmap
    // threshold past a 16 MB image, the first image then comes from the
    // heap and returns to it, and the second reuses that memory, which
    // calloc must clear, touching every page.
    drop(vec![0u8; 24 << 20]);
    drop(Machine::new(2 << 20));
    let before = vm_rss_kb().unwrap();
    let second = Machine::new(2 << 20);
    let after = vm_rss_kb().unwrap();
    assert!(
        after < before + 4 * 1024,
        "a 16 MB image after a freed one made {} KB resident",
        after.saturating_sub(before)
    );
    assert_eq!(second.load(12_345), Some(0));
}
