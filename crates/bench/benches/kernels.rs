//! Micro-benchmarks for the relation-level execution kernels: the
//! packed-key sort paths (full rows packed whole, a partial key through the
//! index permutation, a join input re-sort) and the merge-compare path of
//! `Relation`, the run-length
//! factorized join (run emission and projection-boundary expansion), and the
//! fill-proportional shuffle partitioner. These isolate the kernels the
//! `report_execution` wall-clock columns are built from.

use std::hint::black_box;

use cliquesquare_bench::bench_function;
use cliquesquare_engine::{hash_partition, join_runs, JoinOrder, Relation};
use cliquesquare_rdf::TermId;
use cliquesquare_sparql::Variable;

const ROWS: usize = 20_000;

fn v(name: &str) -> Variable {
    Variable::new(name)
}

/// An unsorted `(x, a, b)` relation whose key column cycles through
/// `rows / 8` distinct values (so sorts see real duplicate groups).
fn unsorted(rows: usize) -> Relation {
    let mut relation = Relation::empty(vec![v("x"), v("a"), v("b")]);
    let keys = (rows / 8).max(1) as u32;
    for i in 0..rows {
        let i = i as u32;
        relation.push_row_unordered(&[
            TermId((i.wrapping_mul(2_654_435_761)) % keys),
            TermId(i),
            TermId(i ^ 0x5a5a),
        ]);
    }
    relation
}

/// An unsorted relation over `arity` columns whose leading columns repeat
/// (so canonical sorts compare past the first column).
fn unsorted_wide(rows: usize, arity: usize) -> Relation {
    let mut relation = Relation::empty((0..arity).map(|c| v(&format!("c{c}"))).collect());
    let keys = (rows / 8).max(1) as u32;
    let mut row = vec![TermId(0); arity];
    for i in 0..rows {
        let mixed = (i as u32).wrapping_mul(2_654_435_761);
        for (c, cell) in row.iter_mut().enumerate() {
            *cell = TermId(mixed.rotate_left(7 * c as u32) % (keys << c));
        }
        relation.push_row_unordered(&row);
    }
    relation
}

/// A canonical (key-sorted) `(x, payload)` relation with `fanout` rows per
/// key — the star-join input shape.
fn sorted_star_input(rows: usize, fanout: usize, payload: &str) -> Relation {
    let mut relation = Relation::empty(vec![v("x"), v(payload)]);
    for i in 0..rows {
        relation.push_row(&[TermId((i / fanout) as u32), TermId(i as u32)]);
    }
    relation
}

fn main() {
    let base = unsorted(ROWS);
    bench_function("kernels_sort/canonicalize_20k_x3", || {
        let mut relation = base.clone();
        relation.canonicalize();
        black_box(relation.len());
    });

    for arity in [2, 4] {
        let base = unsorted_wide(ROWS, arity);
        bench_function(&format!("kernels_sort/canonicalize_20k_x{arity}"), || {
            let mut relation = base.clone();
            relation.canonicalize();
            black_box(relation.len());
        });
    }
    let wide = unsorted_wide(ROWS, 4);
    bench_function("kernels_sort/key2_of_4_20k", || {
        let mut relation = wide.clone();
        relation.sort_by_columns(&[2, 0]);
        black_box(relation.len());
    });
    // Both inputs arrive in no key order, so the join re-sorts each one on
    // its two-column key.
    let resort_left = unsorted_wide(ROWS, 3);
    let mut resort_right = Relation::empty(vec![v("c1"), v("c0"), v("d")]);
    for row in resort_left.rows() {
        resort_right.push_row_unordered(&[row[1], row[0], TermId(row[2].0 ^ 0x5a5a)]);
    }
    let key2 = [v("c0"), v("c1")];
    bench_function("kernels_merge_join/resort_key2_20k_x_20k", || {
        black_box(
            Relation::join_ordered(&[&resort_left, &resort_right], &key2, JoinOrder::Natural).len(),
        );
    });

    let left = sorted_star_input(ROWS, 4, "a");
    let right = sorted_star_input(ROWS, 4, "b");
    let key = [v("x")];
    bench_function("kernels_merge_join/eager_20k_x_20k", || {
        black_box(Relation::join_ordered(&[&left, &right], &key, JoinOrder::Natural).len());
    });

    bench_function("kernels_factorized/join_runs_20k_x_20k", || {
        black_box(join_runs(&[&left, &right], &key, &[]).runs());
    });
    let runs = join_runs(&[&left, &right], &key, &[]);
    bench_function("kernels_factorized/expand_20k_x_20k", || {
        black_box(runs.expand().len());
    });
    let vars = [v("a"), v("b")];
    bench_function("kernels_factorized/project_expand_20k_x_20k", || {
        black_box(runs.project_expand(&vars).len());
    });

    bench_function("kernels_shuffle/hash_partition_20k_8n", || {
        black_box(hash_partition(&base, &key, 8).len());
    });
}
