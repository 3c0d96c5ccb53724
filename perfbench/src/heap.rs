//! The benchmark process's allocator settings.
//!
//! glibc's malloc moves its mmap threshold at run time: it rises to the
//! size of the largest mmapped block freed so far. Whether a set-up's
//! few-hundred-KB buffers are then served from the heap or by fresh,
//! page-faulting mmaps depends on what ran before, and flips set-up time
//! by 2× between otherwise equal runs. [`configure`] pins the threshold
//! at the ceiling of glibc's own adjustment, so every run allocates the
//! same way.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    extern "C" {
        pub fn mallopt(param: i32, value: i32) -> i32;
        pub fn malloc_trim(pad: usize) -> i32;
    }
    pub const M_TRIM_THRESHOLD: i32 = -1;
    pub const M_MMAP_THRESHOLD: i32 = -3;
}

/// Serve blocks below 32 MiB from the heap, and return heap memory to the
/// system only when 64 MiB at its top are free (or on [`trim`]). Fixing
/// either value also turns off glibc's run-time adjustment of both.
pub fn configure() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: mallopt only sets allocator parameters; it is called once,
    // before the benchmark starts any thread.
    unsafe {
        glibc::mallopt(glibc::M_MMAP_THRESHOLD, 32 << 20);
        glibc::mallopt(glibc::M_TRIM_THRESHOLD, 64 << 20);
    }
}

/// Return the allocator's free heap to the system, so the resident size
/// a memory window starts from holds no pages an earlier pass freed.
pub fn trim() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free memory; it is safe to call at
    // any time from any thread.
    unsafe {
        glibc::malloc_trim(0);
    }
}
