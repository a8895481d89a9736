//! Logistic-regression training allocates its workspace once per fit:
//! the number of heap allocations a `fit` makes must not grow with the
//! number of epochs. Kept in its own test binary because the counting
//! allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use histal_core::model::Model;
use histal_data::{TextDataset, TextSpec};
use histal_models::{Document, TextClassifier, TextClassifierConfig};
use histal_text::FeatureHasher;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn fit_allocations_do_not_grow_with_epochs() {
    let data = TextDataset::generate(&TextSpec::tiny(3, 61, 5));
    let hasher = FeatureHasher::new(1 << 12);
    let docs: Vec<Document> = data
        .docs
        .iter()
        .map(|t| Document::from_tokens(t, &hasher))
        .collect();
    let s: Vec<&Document> = docs.iter().collect();
    let l: Vec<&usize> = data.labels.iter().collect();
    let fit_allocs = |epochs: usize| {
        let mut m = TextClassifier::new(TextClassifierConfig {
            n_classes: 3,
            n_features: 1 << 12,
            epochs,
            ..Default::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let before = ALLOCS.load(Ordering::Relaxed);
        m.fit(&s, &l, &mut rng);
        ALLOCS.load(Ordering::Relaxed) - before
    };
    // The first fit pays one-time lazy initialisation; measure after it.
    fit_allocs(1);
    let one = fit_allocs(1);
    assert_eq!(
        fit_allocs(7),
        one,
        "a fit's allocations grew with its epochs"
    );
}
