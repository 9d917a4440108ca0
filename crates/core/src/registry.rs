//! The scheme registry: the single place where [`Scheme`] ids meet their
//! [`SchemeKernel`] implementations.
//!
//! Everything downstream — cost evaluation, the [`crate::Planner`], the
//! protected pipeline, the serving [`crate::Session`] — resolves schemes
//! through a registry instead of matching on the enum, so adding a scheme
//! is: implement [`SchemeKernel`], register it, list it as a candidate.
//! The built-in registry carries the paper's five schemes, the
//! unprotected baseline, and 2- and 3-round multi-checksum extensions.

use crate::kernel::{builtin_kernels, MultiChecksumKernel, SchemeKernel};
use crate::schemes::Scheme;
use std::sync::{Arc, OnceLock};

/// A set of scheme kernels keyed by [`Scheme`] id.
#[derive(Clone, Default)]
pub struct SchemeRegistry {
    kernels: Vec<Arc<dyn SchemeKernel>>,
}

impl SchemeRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        SchemeRegistry::default()
    }

    /// The built-in registry: unprotected baseline, the paper's five
    /// schemes, and the §2.4 multi-checksum extension at 2 and 3 rounds.
    pub fn builtin() -> Self {
        let mut registry = SchemeRegistry::empty();
        for kernel in builtin_kernels() {
            registry.register(kernel);
        }
        registry.register(Arc::new(MultiChecksumKernel::new(2)));
        registry.register(Arc::new(MultiChecksumKernel::new(3)));
        registry
    }

    /// Registers a kernel, replacing any existing kernel with the same
    /// scheme id. Returns `&mut self` for chaining.
    pub fn register(&mut self, kernel: Arc<dyn SchemeKernel>) -> &mut Self {
        let scheme = kernel.scheme();
        self.kernels.retain(|k| k.scheme() != scheme);
        self.kernels.push(kernel);
        self
    }

    /// Builder-style registration for constructing custom registries.
    pub fn with(mut self, kernel: Arc<dyn SchemeKernel>) -> Self {
        self.register(kernel);
        self
    }

    /// Looks up the kernel for a scheme.
    pub fn get(&self, scheme: Scheme) -> Option<&Arc<dyn SchemeKernel>> {
        self.kernels.iter().find(|k| k.scheme() == scheme)
    }

    /// Looks up the kernel for a scheme, panicking with a clear message
    /// if none is registered.
    pub fn resolve(&self, scheme: Scheme) -> &Arc<dyn SchemeKernel> {
        self.get(scheme).unwrap_or_else(|| {
            panic!(
                "no kernel registered for scheme `{scheme}` (registered: {}); \
                 add one with SchemeRegistry::register",
                self.scheme_list()
            )
        })
    }

    /// All registered scheme ids, in registration order.
    pub fn schemes(&self) -> Vec<Scheme> {
        self.kernels.iter().map(|k| k.scheme()).collect()
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True if no kernels are registered.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    fn scheme_list(&self) -> String {
        self.schemes()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// The process-wide shared built-in registry used by default API entry
/// points (`ProtectedGemm::new`, `ProtectedPipeline::compile`, `Planner`).
pub fn shared() -> &'static Arc<SchemeRegistry> {
    static SHARED: OnceLock<Arc<SchemeRegistry>> = OnceLock::new();
    SHARED.get_or_init(|| Arc::new(SchemeRegistry::builtin()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiga_gpu::engine::Matrix;

    #[test]
    fn builtin_covers_baseline_and_all_protected_schemes() {
        let r = SchemeRegistry::builtin();
        assert!(r.get(Scheme::Unprotected).is_some());
        for scheme in Scheme::all_protected() {
            assert!(r.get(scheme).is_some(), "{scheme}");
        }
        assert!(r.get(Scheme::MultiChecksum(2)).is_some());
        assert!(r.get(Scheme::MultiChecksum(7)).is_none());
    }

    #[test]
    fn registering_replaces_by_scheme_id() {
        let mut r = SchemeRegistry::builtin();
        let before = r.len();
        r.register(Arc::new(MultiChecksumKernel::new(2)));
        assert_eq!(r.len(), before, "same id must replace, not append");
        r.register(Arc::new(MultiChecksumKernel::new(4)));
        assert_eq!(r.len(), before + 1);
        assert!(r.get(Scheme::MultiChecksum(4)).is_some());
    }

    #[test]
    fn custom_kernel_plugs_in_without_touching_builtins() {
        let registry = SchemeRegistry::builtin().with(Arc::new(MultiChecksumKernel::new(5)));
        let kernel = registry.resolve(Scheme::MultiChecksum(5));
        let bound = kernel.bind(&Matrix::random(8, 8, 3));
        assert_eq!(bound.scheme(), Scheme::MultiChecksum(5));
    }

    #[test]
    #[should_panic(expected = "no kernel registered")]
    fn resolving_an_unregistered_scheme_panics_clearly() {
        SchemeRegistry::empty().resolve(Scheme::GlobalAbft);
    }

    #[test]
    fn shared_registry_is_stable() {
        let a = shared();
        let b = shared();
        assert!(Arc::ptr_eq(a, b));
        assert!(!a.is_empty());
    }
}
