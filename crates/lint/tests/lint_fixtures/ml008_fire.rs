#[doc(hidden)]
pub fn shim() {}

#[doc(hidden)]
#[inline]
pub use inner::helper;
