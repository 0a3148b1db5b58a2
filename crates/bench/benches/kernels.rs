//! Microbenches for the scan path: kernel throughput per predicate family
//! through the 64-row word entry point.
//!
//! Ids are `kernel_scan/<family>`; none are regression-gated (the gate
//! watches fig9a/incr_session/multi_session/serving), they record the
//! scan rate in BENCH_squid.json.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use squid_relation::kernel::{self, CmpSpec};
use squid_relation::{ColumnBuilder, DataType, Sym, Table, TableSchema, Value};

const ROWS: usize = 1 << 20;

/// One table with an int, a float, and a text column of pseudo-random
/// values (~3% nulls) — enough rows that per-word overheads dominate any
/// cache effects.
fn scan_table() -> Table {
    let mut ints = ColumnBuilder::new(DataType::Int);
    let mut floats = ColumnBuilder::new(DataType::Float);
    let mut texts = ColumnBuilder::new(DataType::Text);
    let mut x = 0x243F_6A88_85A3_08D3u64;
    for _ in 0..ROWS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if x.is_multiple_of(32) {
            ints.push_null();
            floats.push_null();
            texts.push_null();
            continue;
        }
        ints.push_int((x >> 33) as i64 % 1_000);
        floats.push_float(((x >> 17) % 10_000) as f64 / 10.0);
        texts.push_sym(Sym::from(format!("tag{}", (x >> 40) % 16).as_str()));
    }
    Table::from_columns(
        TableSchema::new(
            "scan",
            vec![
                squid_relation::Column::new("i", DataType::Int),
                squid_relation::Column::new("f", DataType::Float),
                squid_relation::Column::new("t", DataType::Text),
            ],
        ),
        vec![ints, floats, texts],
    )
    .unwrap()
}

fn bench_kernels(c: &mut Criterion) {
    let table = scan_table();
    let n = table.len();
    let families: Vec<(&str, usize, DataType, CmpSpec)> = vec![
        (
            "int_range",
            0,
            DataType::Int,
            CmpSpec::Between(Value::Int(100), Value::Int(600)),
        ),
        (
            "float_range",
            1,
            DataType::Float,
            CmpSpec::Between(Value::Float(50.0), Value::Float(700.0)),
        ),
        (
            "sym_eq",
            2,
            DataType::Text,
            CmpSpec::Eq(Value::text("tag3")),
        ),
        (
            "sym_in",
            2,
            DataType::Text,
            CmpSpec::In(vec![
                Value::text("tag1"),
                Value::text("tag5"),
                Value::text("tag9"),
            ]),
        ),
    ];
    let mut group = c.benchmark_group("kernel_scan");
    for (name, col, dtype, spec) in &families {
        let k = kernel::compile(table.column(*col), *dtype, spec);
        group.bench_function(*name, |b| {
            b.iter(|| {
                let mut acc = 0u32;
                for batch in 0..kernel::batch_count(n) {
                    acc += k.eval_word(batch, n).count_ones();
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(kernels, bench_kernels);
criterion_main!(kernels);
