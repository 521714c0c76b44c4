//! Process and filesystem probes: heap and child-process memory, `/proc`
//! I/O counters, store-directory walks and `sync`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// The global allocator: the system allocator, which, between
/// [`heap_count_start`] and [`heap_count_stop`], also counts the change in
/// live heap bytes and its peak. The in-process daemon's memory is read
/// from it. Outside that window an allocation costs one relaxed load.
pub(crate) struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Live heap bytes relative to the window's start; negative when the
/// window frees more than it allocates.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

// Statistics only: the counters publish no other data, so Relaxed is
// enough.
fn grow(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Opens the counting window: live and peak bytes restart at 0.
pub(crate) fn heap_count_start() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Closes the counting window; returns the peak of live heap bytes above
/// those at its start. A block freed inside the window counts even when it
/// was allocated before it, so the figure is the heap's own change.
pub(crate) fn heap_count_stop() -> u64 {
    COUNTING.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// `write_bytes` of `/proc/self/io`: bytes this process caused to be sent
/// to the storage layer.
pub(crate) fn io_write_bytes() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .find_map(|line| line.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by glibc on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Peak RSS in bytes of the largest child process waited for so far.
pub(crate) fn children_peak_rss() -> u64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with glibc's
    // 64-bit layout (two timevals, then fourteen longs), which is all
    // getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss.max(0) as u64 * 1024
    } else {
        0
    }
}

/// File count and summed apparent size of every regular file under `dir`.
pub(crate) fn tree_size(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else if meta.is_file() {
                files += 1;
                bytes += meta.len();
            }
        }
    }
    (files, bytes)
}

/// Flushes dirty pages, so one phase's writeback does not land inside
/// the next timed phase.
pub(crate) fn sync() {
    let _ = Command::new("sync").status();
}

/// Removes `dir` if present, then [`sync`]s.
pub(crate) fn clean_and_sync(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    sync();
}
