#[doc(hidden)]
pub(crate) fn internal() {}

/// Documented public API.
pub fn api() {}

#[cfg(test)]
mod tests {
    #[doc(hidden)]
    pub fn test_helper() {}
}
