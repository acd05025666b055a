//! The request codec layer of a served inline solve: `encode_request` and
//! `decode_request` of a `Solve` frame whose `InstanceSpec::sized(5, n, l)`
//! instance carries its network inline, at the `cold` workload's size
//! (200 nodes / 460 links) and at 500 nodes / 1 500 links. Decoding
//! includes rebuilding the network. Each row records the payload size as
//! its `bytes`; the group writes `BENCH_codec.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use elpc_mapping::CostModel;
use elpc_serving::protocol::{decode_request, encode_request, Request, RequestFrame, SolveRequest};
use elpc_workloads::InstanceSpec;
use std::hint::black_box;
use std::time::Duration;

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for (nodes, links) in [(200usize, 460usize), (500, 1_500)] {
        let instance = InstanceSpec::sized(5, nodes, links)
            .generate(7)
            .expect("sized specs generate");
        let frame = RequestFrame {
            id: 1,
            body: Request::Solve(SolveRequest {
                solver: "elpc_delay_routed".into(),
                cost: CostModel::default(),
                threads: 1,
                timeout_ms: None,
                instance,
            }),
        };
        let payload = encode_request(&frame);
        group.throughput(Throughput::Bytes(payload.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("encode_request", nodes),
            &frame,
            |b, frame| b.iter(|| black_box(encode_request(frame))),
        );
        group.bench_with_input(
            BenchmarkId::new("decode_request", nodes),
            payload.as_bytes(),
            |b, bytes| b.iter(|| black_box(decode_request(bytes).expect("own encoding decodes"))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
