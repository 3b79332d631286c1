use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
static COUNTER: AtomicUsize = AtomicUsize::new(0);
pub static REGISTRY: OnceLock<Mutex<Vec<u32>>> = OnceLock::new();
pub(crate) static mut SCRATCH: std::cell::RefCell<u32> = std::cell::RefCell::new(0);
thread_local! {
    static HOT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

pub fn tick() -> usize {
    COUNTER.fetch_add(1, Ordering::Relaxed)
}
