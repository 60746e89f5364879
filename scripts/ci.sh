#!/usr/bin/env bash
# CI gate for qframan.
#
# Stage 1 (tier 1): full Release configure + build + ctest — the
#   regression bar every PR must clear.
# Stage 1b (perfbench build): configure and build the repository
#   benchmark harness (perfbench/) against the library. It drives
#   RamanWorkflow, serve::Server, RequestReport, RuntimeOptions and
#   MasterRuntime by name, so an API change that breaks it fails here
#   instead of at benchmark time.
# Stage 2 (robustness): AddressSanitizer, UBSan, and ThreadSanitizer
#   builds of the fault-injection, checkpoint-integrity, scheduler,
#   tracker, and supervisor suites. The fault framework corrupts files,
#   kills and hangs leader threads, and routes results through the
#   retry/degradation paths on purpose; these suites must stay clean
#   under all three sanitizers (TSan in particular covers the
#   supervisor/leader/worker handoffs).
# Stage 3 (soak): the ctest "soak" configuration — the fixed-seed chaos
#   soak (≥50 seeded sweeps with mid-run leader kills/hangs that must all
#   finish with exactly-once, baseline-identical results), the process-
#   transport SIGKILL soak, and the slow DES scaling studies. Excluded
#   from the tier-1 ctest run by CONFIGURATIONS so the default gate stays
#   fast. Both ctest lanes run under --timeout so a wedged leader process
#   or lost heartbeat fails loudly instead of hanging CI.
# Stage 3b (process chaos): the process-transport chaos suite run
#   directly (forked leader processes killed -9 mid-sweep), followed by a
#   zombie scan — no leader process may outlive its master.
# Stage 4 (bench smoke): instrumented bench runs emitting their
#   qfr.bench.v1 JSON trajectory points (BENCH_fig09.json — including the
#   measured real-vs-modeled executor replay — BENCH_kernels.json with
#   both analytic-gradient timings (HF and LDA) and the CPSCF iteration
#   counts of one water, gated at 3 * (n_occ * n_virt + 1),
#   BENCH_cache.json, BENCH_transport.json, whose thread and process
#   sweeps of each case must agree bitwise — every *.parity sample 1 —
#   with every *.seconds finite and positive) — catches bench-binary and
#   exporter rot without timing anything.
# Stage 4b (serve smoke): the serve_burst replay drives a live
#   serve::Server through a seeded request storm and its BENCH_serve.json
#   must show the overload machinery actually engaged — cross-request
#   cache hits > 0, at least one shed or typed rejection, and a bounded
#   p99 latency (the "no unbounded queueing under overload" gate).
# Stage 4c (traj smoke): the trajectory_stream bench streams an RHF
#   water trajectory through the tolerance-tiered cache and its
#   BENCH_traj.json must show the per-frame cost actually collapsing —
#   frames >= 2 mean wall <= 0.5x frame 1, reuse ratio >= 50%, every
#   reuse tier accounted for, and model-engine spectrum parity against
#   cold per-frame recomputes within the documented refresh bound.
# Stage 4d (frag smoke): the fragmentation ablation's partition-
#   comparison lane (MFCC vs graph min-cut) must emit BENCH_frag.json
#   showing balanced parts (no multiply-cut atom, balance factor in
#   tolerance), both policies reproducing the unfragmented spectrum, and
#   the SiO2 cap case: MFCC rejects a 30-atom fragment cap with a typed
#   error while the graph policy satisfies it with spectrum parity.
# Stage 5 (cache smoke): the solvated-protein example with the result
#   cache enabled must report a nonzero cache_hit_rate — the end-to-end
#   proof that canonicalization recognizes the box's rigid water copies.
# Stage 5b (resume smoke): the resumable_sweep example kills a sweep on
#   forked leader processes partway, resumes it from its checkpoint on
#   leader threads, and must print resume_identical=1 — the resumed
#   spectrum bitwise equal to an uninterrupted run's, for records that
#   crossed the leader wire before they reached the checkpoint.
# Stage 6 (scalar-fallback divergence): a -DQFR_NO_AVX2=ON build runs the
#   kernels-labeled suites and dumps the fuzz corpus checksums; they must
#   agree with the vectorized build's corpus within tolerance — the gate
#   that the AVX2/FMA microkernels and the scalar fallback compute the
#   same numbers.
#
# Usage: scripts/ci.sh [--skip-sanitizers]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
SKIP_SANITIZERS=0
[[ "${1:-}" == "--skip-sanitizers" ]] && SKIP_SANITIZERS=1

echo "== tier 1: release build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS" --timeout 300

echo "== perfbench: the benchmark harness must build against the library =="
cmake -S perfbench -B build/perfbench -G Ninja >/dev/null
cmake --build build/perfbench --target qfr_perfbench

echo "== soak lane: chaos soak + slow DES studies (release tree) =="
ctest --test-dir build -C soak -L soak --output-on-failure --timeout 900

echo "== process-mode chaos: real SIGKILL recovery + zombie hygiene =="
build/tests/test_process_runtime \
  --gtest_filter='ProcessRuntime.*:ProcessChaosSoak.*' >/dev/null
# Every leader process is forked from the test binary and must be reaped
# by it: anything still matching after exit is a leaked child or zombie.
if pgrep -f test_process_runtime >/dev/null; then
  echo "process chaos leaked leader processes:"
  pgrep -af test_process_runtime
  exit 1
fi
echo "process chaos ok (no leaked leader processes)"

echo "== bench smoke: fig09 + micro_kernels + cache_dedup JSON export =="
build/bench/fig09_step_speedup --json build/BENCH_fig09.json >/dev/null
python3 - <<'EOF' || { echo "BENCH_fig09.json check failed"; exit 1; }
import json
d = json.load(open('build/BENCH_fig09.json'))
real = {s['label']: s['value'] for s in d['samples']
        if s['label'].startswith('real.cycle.speedup/')}
assert real, 'no measured real.cycle.speedup samples'
avg = real['real.cycle.speedup/avg']
assert avg >= 2.0, f'measured batch speedup {avg:.2f}x below the 2x bar'
print(f"BENCH_fig09.json ok (measured avg {avg:.1f}x)")
EOF
build/bench/micro_kernels --json build/BENCH_kernels.json >/dev/null
python3 - <<'EOF' || { echo "BENCH_kernels.json check failed"; exit 1; }
import json, math
d = json.load(open('build/BENCH_kernels.json'))
s = {x['label']: x['value'] for x in d['samples']}
# Both analytic gradients, HF and LDA, must be timed.
for key in ('rhf_gradient.water_sto3g.ms', 'lda_gradient.water_sto3g.ms'):
    assert key in s, f'missing {key}'
    assert math.isfinite(s[key]) and s[key] > 0, f'{key} = {s[key]}'
# CPSCF is a Krylov solve: each of the three field directions ends
# within the amplitude dimension + 1, so a polarizability over that bound
# means the solve regressed toward fixed-point (mixing) counts.
bound = 3 * (s['cpscf.water_sto3g.amplitudes'] + 1)
for xc in ('hf', 'lda'):
    it = s[f'cpscf.water_sto3g.{xc}.iterations']
    assert 0 < it <= bound, f'CPSCF {xc} water took {it:.0f} iterations (> {bound:.0f})'
print(f"BENCH_kernels.json ok (rhf_gradient "
      f"{s['rhf_gradient.water_sto3g.ms']:.2f} ms, lda_gradient "
      f"{s['lda_gradient.water_sto3g.ms']:.2f} ms, CPSCF iterations "
      f"hf {s['cpscf.water_sto3g.hf.iterations']:.0f} / lda "
      f"{s['cpscf.water_sto3g.lda.iterations']:.0f} <= {bound:.0f})")
EOF
build/bench/cache_dedup --json build/BENCH_cache.json >/dev/null
python3 -c "import json; json.load(open('build/BENCH_cache.json'))" \
  2>/dev/null || { echo "BENCH_cache.json is not valid JSON"; exit 1; }
echo "BENCH_cache.json ok"
build/bench/transport_overhead --json build/BENCH_transport.json >/dev/null
python3 - <<'EOF' || { echo "BENCH_transport.json check failed"; exit 1; }
import json, math
d = json.load(open('build/BENCH_transport.json'))
s = {x['label']: x['value'] for x in d['samples']}
# Transport parity: each case's thread and process sweeps completed every
# fragment with bitwise-equal results.
parity = {k: v for k, v in s.items() if k.endswith('.parity')}
assert parity, 'no parity samples'
bad = sorted(k for k, v in parity.items() if v != 1)
assert not bad, f'transport parity mismatch: {bad}'
seconds = {k: v for k, v in s.items() if k.endswith('.seconds')}
assert seconds, 'no timing samples'
for k, v in seconds.items():
    assert math.isfinite(v) and v > 0, f'{k} = {v}'
print(f"BENCH_transport.json ok ({len(parity)} cases at parity, "
      f"{len(seconds)} timings)")
EOF

echo "== serve smoke: burst replay must shed/reject and hit the cache =="
build/bench/serve_burst --json build/BENCH_serve.json >/dev/null
python3 - <<'EOF' || { echo "BENCH_serve.json check failed"; exit 1; }
import json
d = json.load(open('build/BENCH_serve.json'))
s = {x['label']: x['value'] for x in d['samples']}
assert s['cache.hits'] > 0, 'no cross-request cache hits'
pressure = s['n.shed'] + s['n.rejected_overload'] + s['n.rejected_quota']
assert pressure > 0, 'burst never tripped admission control'
assert s['n.completed'] > 0, 'no request completed'
# Bounded p99: the replay drains a sub-second storm of tiny spectra; an
# unbounded queue or a lost request would blow far past this.
assert 0 < s['latency.p99_ms'] < 5000, f"p99 {s['latency.p99_ms']:.1f} ms"
print(f"BENCH_serve.json ok (p99 {s['latency.p99_ms']:.2f} ms, "
      f"{int(s['cache.hits'])} cache hits, "
      f"{int(pressure)} shed/rejected)")
EOF

echo "== traj smoke: streamed trajectory must collapse per-frame cost =="
build/bench/trajectory_stream --json build/BENCH_traj.json >/dev/null
python3 - <<'EOF' || { echo "BENCH_traj.json check failed"; exit 1; }
import json
d = json.load(open('build/BENCH_traj.json'))
s = {x['label']: x['value'] for x in d['samples']}
# The whole point of the tiered cache: frames after the first ride on
# exact transports and refreshes instead of re-paying the ab initio
# sweep.
assert s['stream.rest_mean_seconds'] <= 0.5 * s['stream.frame1_seconds'], (
    f"no collapse: frame1 {s['stream.frame1_seconds']:.3f}s, "
    f"rest mean {s['stream.rest_mean_seconds']:.3f}s")
assert s['stream.reuse_ratio'] >= 0.5, (
    f"reuse ratio {s['stream.reuse_ratio']:.2f} < 0.5")
assert s['stream.tier_exact'] > 0, 'no exact-tier transports'
assert s['stream.tier_full'] > 0, 'no full computes (vacuous run)'
# Refresh-tier error is bounded by the cache quantization tolerance
# (DESIGN.md, trajectory streaming): ~1e-5 relative at the default 1e-4
# tolerance, so 1e-3 catches a broken tier without flaking.
assert s['parity.max_rel_l2'] < 1e-3, (
    f"spectrum parity {s['parity.max_rel_l2']:.2e} out of bound")
print(f"BENCH_traj.json ok (collapse "
      f"{s['stream.collapse_ratio']:.4f}x, reuse "
      f"{100 * s['stream.reuse_ratio']:.0f}%, parity "
      f"{s['parity.max_rel_l2']:.2e})")
EOF

echo "== frag smoke: graph partition must balance and match the spectrum =="
build/bench/ablation_fragmentation --json build/BENCH_frag.json >/dev/null
python3 - <<'EOF' || { echo "BENCH_frag.json check failed"; exit 1; }
import json
d = json.load(open('build/BENCH_frag.json'))
s = {x['label']: x['value'] for x in d['samples']}
# Both policies must reproduce the unfragmented bonded reference (the
# model engine's dalpha carries ~1e-8 FD noise; 1e-6 catches a broken
# cut correction without flaking).
assert s['mfcc.spectrum_err'] < 1e-6, f"mfcc err {s['mfcc.spectrum_err']:.2e}"
assert s['graph.spectrum_err'] < 1e-6, (
    f"graph err {s['graph.spectrum_err']:.2e}")
# Balanced parts: no atom severed twice (the exactness condition) and the
# balance factor inside tolerance (+ slack for indivisible glued groups).
assert s['graph.multicut_atoms'] == 0, 'multiply-cut atoms survived'
assert s['graph.balance_factor'] <= 1.6, (
    f"balance {s['graph.balance_factor']:.2f}")
# The constraint MFCC cannot satisfy: a fragment cap below the silica
# cluster's size must be a typed MFCC error, yet hold under graph cuts.
assert s['silica.mfcc_rejected'] == 1, 'MFCC accepted an unsatisfiable cap'
assert s['silica.graph.atoms_max'] <= s['silica.cap'], (
    f"graph fragment {s['silica.graph.atoms_max']:.0f} atoms over the "
    f"{s['silica.cap']:.0f} cap")
assert s['silica.graph.spectrum_err'] < 1e-6, (
    f"silica err {s['silica.graph.spectrum_err']:.2e}")
print(f"BENCH_frag.json ok (graph balance "
      f"{s['graph.balance_factor']:.2f}, cuts "
      f"{int(s['graph.cut_bonds'])}, parity "
      f"{s['graph.spectrum_err']:.1e} / "
      f"{s['silica.graph.spectrum_err']:.1e} silica)")
EOF

echo "== cache smoke: solvated example must report a nonzero hit rate =="
HIT_RATE=$(build/examples/solvated_protein 10 16 |
  sed -n 's/^cache_hit_rate=//p')
python3 -c "import sys; rate = float('${HIT_RATE:-0}'); sys.exit(0 if rate > 0 else 1)" ||
  { echo "cache smoke failed: hit rate '${HIT_RATE:-}' not > 0"; exit 1; }
echo "cache_hit_rate=${HIT_RATE} ok"

echo "== resume smoke: a resumed sweep must reproduce the uninterrupted spectrum =="
RESUME=$(build/examples/resumable_sweep 2>/dev/null |
  sed -n 's/^resume_identical=//p') || true
[[ "${RESUME:-}" == "1" ]] ||
  { echo "resume smoke failed: resume_identical='${RESUME:-}'"; exit 1; }
echo "resume_identical=1 ok"

echo "== scalar-fallback divergence: QFR_NO_AVX2 vs vectorized kernels =="
# Kernels lane of the vectorized tree (also dumps the fuzz corpus).
QFR_KERNELS_CORPUS_OUT=build/corpus-vec.txt \
  build/tests/test_kernels --gtest_filter='KernelFuzz.MatchesScalarReference' \
  >/dev/null
ctest --test-dir build -L kernels --output-on-failure -j "$JOBS"
# Scalar-fallback build: same suites, same corpus.
cmake -B build-noavx2 -S . -DQFR_NO_AVX2=ON \
  -DQFR_BUILD_BENCHES=OFF -DQFR_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-noavx2 -j "$JOBS" --target test_kernels
QFR_KERNELS_CORPUS_OUT=build-noavx2/corpus-scalar.txt \
  build-noavx2/tests/test_kernels >/dev/null
python3 - <<'EOF' || { echo "scalar-fallback divergence gate failed"; exit 1; }
# Per-case |C| checksums from both builds must agree to rounding: the two
# builds run the same fuzz corpus, differing only in the microkernel ISA.
def read(path):
    out = {}
    for line in open(path):
        case, value = line.split()
        out[int(case)] = float(value)
    return out
vec = read('build/corpus-vec.txt')
scal = read('build-noavx2/corpus-scalar.txt')
assert vec and set(vec) == set(scal), 'corpus case sets differ'
worst = max(abs(vec[c] - scal[c]) / max(1.0, abs(scal[c])) for c in vec)
assert worst < 1e-13, f'vectorized vs scalar corpus diverges: {worst:.3e}'
print(f'scalar-fallback corpus ok ({len(vec)} cases, worst rel {worst:.1e})')
EOF

if [[ "$SKIP_SANITIZERS" == "1" ]]; then
  echo "== sanitizer stages skipped =="
  exit 0
fi

# The robustness suites: everything exercising fault injection, the
# validator/degradation machinery, the CRC-framed checkpoint format, the
# lease-fenced supervised runtime, the observability layer, the result
# cache (whose registry/tracer/single-flight paths must stay clean under
# the thread pool — the TSan leg), the leader-process wire protocol fuzz
# (hostile frames must fail typed, never UB — the ASan/UBSan leg exists
# for exactly this), and the GEMM kernel/executor fuzz (out-of-bounds
# packing under ASan, ISA-dispatch atomics under TSan), the common
# suite, whose nestable caller-participating ThreadPool carries every
# leader's fragments and displacement jobs, and the integral and gradient
# suites, whose fixed-size Hermite tables must stay in bounds (ASan/UBSan)
# and whose per-thread Hermite scratch runs concurrently on every worker
# thread (TSan), and the DFPT suite, whose P1 phase runs strided GEMM
# tasks at raw pointer offsets into the MO coefficients and amplitudes
# (ASan/UBSan).
ROBUSTNESS_TESTS=(test_fault test_checkpoint test_scheduler test_tracker
                  test_supervisor test_obs test_cache test_kernels
                  test_wire test_codec test_common test_integrals
                  test_gradients test_dfpt)

for SAN in address undefined thread; do
  case "$SAN" in
    address)   BUILD=build-addrsan ;;
    undefined) BUILD=build-undesan ;;
    thread)    BUILD=build-tsan ;;
  esac
  SAN_TESTS=("${ROBUSTNESS_TESTS[@]}")
  # The process-transport suite fork()s from a threaded master, which is
  # outside TSan's model (it would report on the child's inherited state);
  # it runs under ASan and UBSan only. The serve suite runs whole under
  # ASan and UBSan. Under TSan it runs its Serve.* cases, whose pool slots
  # share the runtime's leader step and ThreadPool, but not the chaos
  # replays (Serve.ChaosSingleSeed, ServeChaosSoak.*): they are
  # wall-clock paced, and TSan's scheduling skew starves the
  # deadline/cancel storms they exist to exercise.
  [[ "$SAN" != thread ]] && SAN_TESTS+=(test_process_runtime test_serve)
  echo "== robustness under ${SAN} sanitizer (${BUILD}) =="
  cmake -B "$BUILD" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DQFR_SANITIZE="$SAN" \
    -DQFR_BUILD_BENCHES=OFF \
    -DQFR_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$BUILD" -j "$JOBS" --target "${SAN_TESTS[@]}" test_serve
  for t in "${SAN_TESTS[@]}"; do
    "$BUILD/tests/$t"
  done
  if [[ "$SAN" == thread ]]; then
    "$BUILD/tests/test_serve" --gtest_filter='Serve.*:-Serve.ChaosSingleSeed'
  fi
done

echo "== ci passed =="
