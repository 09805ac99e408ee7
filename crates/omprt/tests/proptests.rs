//! Property-based tests for the mini-OpenMP runtime: the static chunk math
//! partitions exactly, the worksharing loop on a real team hands every
//! thread exactly that chunk (the claim the `machine` simulator relies on).

use omprt::{for_each_range, static_chunk, ThreadTeam};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn static_chunks_partition(n in 0usize..500, t in 1usize..17) {
        let mut next = 0usize;
        for tid in 0..t {
            let r = static_chunk(tid, t, n);
            prop_assert_eq!(r.start, next);
            next = r.end;
        }
        prop_assert_eq!(next, n);
        // Balance within one iteration.
        let lens: Vec<usize> = (0..t).map(|tid| static_chunk(tid, t, n).len()).collect();
        prop_assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }

    #[test]
    fn runtime_deals_each_thread_its_static_chunk(n in 0usize..500, threads in 1usize..9) {
        let team = ThreadTeam::new(threads);
        let runs = std::sync::Mutex::new(vec![Vec::new(); threads]);
        team.parallel(|ctx| {
            for_each_range(ctx, n, |r| runs.lock().unwrap()[ctx.thread_id].push(r));
        });
        for (t, got) in runs.into_inner().unwrap().into_iter().enumerate() {
            let want = static_chunk(t, threads, n);
            let want = if want.is_empty() { vec![] } else { vec![want] };
            prop_assert_eq!(got, want, "thread {} of {}, n = {}", t, threads, n);
        }
    }
}
