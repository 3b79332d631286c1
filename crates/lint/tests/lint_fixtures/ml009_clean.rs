use std::sync::atomic::AtomicU64;

/// Immutable statics carry no state.
static NAMES: &[&str] = &["static", "AtomicUsize"];
pub static LIMIT: usize = 16;

pub fn label() -> &'static str {
    NAMES[0]
}

/// Counts owned by the value that does the work, not by the process.
pub struct Counts {
    pub hits: AtomicU64,
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, OnceLock};

    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
}
