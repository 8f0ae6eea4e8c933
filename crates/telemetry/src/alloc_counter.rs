//! A reusable counting-allocator harness for allocation-regression
//! tests.
//!
//! [`install_counting_allocator!`] expands to a `#[global_allocator]`
//! that counts every `alloc`/`realloc` call, plus an
//! `allocation_count()` reader. The expansion happens in the *caller's*
//! crate (a test binary), so this library itself stays
//! `forbid(unsafe_code)`-clean while tests across the workspace share
//! one vetted harness instead of re-rolling the `GlobalAlloc` wrapper.

/// Installs a process-wide allocation counter in the invoking crate.
///
/// Expands to a counting `#[global_allocator]` (wrapping
/// [`std::alloc::System`]) and a free function `allocation_count() ->
/// usize` returning the number of `alloc` + `realloc` calls since
/// process start. Invoke once, at the top level of a test binary:
///
/// ```ignore
/// pico_telemetry::install_counting_allocator!();
///
/// #[test]
/// fn hot_path_does_not_allocate() {
///     let before = allocation_count();
///     // ... exercise the hot path ...
///     assert_eq!(allocation_count() - before, 0);
/// }
/// ```
///
/// The counter is global to the process: a delta includes every
/// thread's allocations — a neighbouring `#[test]`'s among them, so a
/// binary asserting a zero holds one test — except the harness's main
/// thread's, which allocates beside the test it waits for.
#[macro_export]
macro_rules! install_counting_allocator {
    () => {
        static __PICO_ALLOCATIONS: ::std::sync::atomic::AtomicUsize =
            ::std::sync::atomic::AtomicUsize::new(0);
        static __PICO_FIRST_CALL: ::std::sync::Once = ::std::sync::Once::new();
        ::std::thread_local! {
            static __PICO_MAIN_THREAD: ::std::cell::Cell<bool> =
                const { ::std::cell::Cell::new(false) };
        }

        /// Counts one allocator call unless the main thread makes it:
        /// the one that makes the process's first, before another exists.
        fn __pico_count_allocation() {
            __PICO_FIRST_CALL.call_once(|| __PICO_MAIN_THREAD.with(|main| main.set(true)));
            if !__PICO_MAIN_THREAD.with(::std::cell::Cell::get) {
                __PICO_ALLOCATIONS.fetch_add(1, ::std::sync::atomic::Ordering::SeqCst);
            }
        }

        struct __PicoCountingAlloc;

        unsafe impl ::std::alloc::GlobalAlloc for __PicoCountingAlloc {
            unsafe fn alloc(&self, layout: ::std::alloc::Layout) -> *mut u8 {
                __pico_count_allocation();
                ::std::alloc::System.alloc(layout)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: ::std::alloc::Layout) {
                ::std::alloc::System.dealloc(ptr, layout)
            }

            unsafe fn realloc(
                &self,
                ptr: *mut u8,
                layout: ::std::alloc::Layout,
                new_size: usize,
            ) -> *mut u8 {
                __pico_count_allocation();
                ::std::alloc::System.realloc(ptr, layout, new_size)
            }
        }

        #[global_allocator]
        static __PICO_GLOBAL_ALLOC: __PicoCountingAlloc = __PicoCountingAlloc;

        /// Allocator calls (`alloc` + `realloc`) since process start.
        #[allow(dead_code)]
        fn allocation_count() -> usize {
            assert!(
                !__PICO_MAIN_THREAD.with(::std::cell::Cell::get),
                "a test on the main thread is not counted"
            );
            __PICO_ALLOCATIONS.load(::std::sync::atomic::Ordering::SeqCst)
        }
    };
}
