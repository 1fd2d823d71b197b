#!/usr/bin/env python3
"""Checks on the bench JSON records and the detlint SARIF report.

Each subcommand loads its input files, asserts the record's contract and
prints one summary line; a failed assertion exits nonzero with its message.
Standard library only.

Usage, from the repository root after the benches have run:

    python3 tools/bench_compare.py phase-schema BENCH_fig6_smoke.json
    python3 tools/bench_compare.py retention-classes BENCH_fig3_smoke.json
    python3 tools/bench_compare.py kernel-independence \\
        BENCH_fig6_smoke.json BENCH_fig6_smoke_scalar.json
    python3 tools/bench_compare.py sarif detlint.sarif
    python3 tools/bench_compare.py sleepers-schema BENCH_sleepers.json
"""

import argparse
import json


def load(path):
    with open(path) as f:
        return json.load(f)


def phase_schema(path):
    """Per-phase breakdown schema of a nocache-only sharded figure record."""
    r = load(path)
    for key in ('server_seconds', 'shard_seconds', 'replay_seconds',
                'replay_records', 'quiet_report_intervals',
                'quiet_skipped_intervals', 'heap_allocations',
                'update_seconds', 'updates_applied',
                'journal_bytes_peak', 'simd_kernel'):
        assert key in r, f'missing top-level {key}'
    assert r['simd_kernel'] in ('scalar', 'sse2', 'avx2'), r
    # The batched update drain runs inside the server phase, so its
    # wall share is a sub-account of server_seconds.
    assert 0 <= r['update_seconds'] <= r['server_seconds'], (
        r['update_seconds'], r['server_seconds'])
    assert r['updates_applied'] > 0, 'no updates applied'
    # Elision can only skip intervals that were quiet to begin with.
    assert (r['quiet_skipped_intervals'] <=
            r['quiet_report_intervals']), (
        r['quiet_skipped_intervals'], r['quiet_report_intervals'])
    assert r['heap_allocations'] > 0, 'allocation counter not wired'
    assert r['breakdown'], 'no per-cell breakdown entries'
    for b in r['breakdown']:
        for key in ('server_seconds', 'shard_seconds',
                    'replay_seconds', 'replay_records',
                    'update_seconds', 'updates_applied',
                    'retention_class', 'journal_bytes_peak'):
            assert key in b, f'missing {key} in {b["label"]}'
        assert b['retention_class'] in ('none', 'dirty', 'full'), b
        # Retention-class contracts: a journal-less strategy must
        # report a zero journal footprint; anything retaining history
        # (the dirty set's 2 * ceil(n/8) bytes included) must report a
        # nonzero peak.
        if b['retention_class'] == 'none':
            assert b['journal_bytes_peak'] == 0, b
        else:
            assert b['journal_bytes_peak'] > 0, b
    classes = {b['retention_class'] for b in r['breakdown']}
    # Scenario 4 only simulates nocache (TS is infeasible there and
    # SIG/AT are analytic-only), so this record exercises exactly the
    # kNone retention path: zero journal footprint across the board.
    assert classes == {'none'}, classes
    assert r['journal_bytes_peak'] == 0, r['journal_bytes_peak']
    # The phases partition each cell's run: their sum must land close
    # to the sweep wall time (cell construction and analytics are the
    # only other contributors).
    phase_sum = (r['server_seconds'] + r['shard_seconds'] +
                 r['replay_seconds'])
    assert 0 < phase_sum <= r['wall_seconds'], (phase_sum,
                                                r['wall_seconds'])
    assert phase_sum > 0.5 * r['wall_seconds'], (
        f'phase sum {phase_sum:.3f}s is an implausibly small share '
        f'of wall {r["wall_seconds"]:.3f}s')
    assert r['replay_records'] > 0, 'replay merged no records'
    print(f'phase sum {phase_sum:.3f}s of wall '
          f'{r["wall_seconds"]:.3f}s, '
          f'{r["replay_records"]} records replayed')


def retention_classes(path):
    """Retention classes and footprints in the mixed-strategy record."""
    r = load(path)
    # Scenario 1 simulates TS, AT, SIG, and nocache together, so all
    # three retention classes must appear (AT and SIG both on the
    # dirty set), each honouring its footprint contract (none => zero
    # bytes, dirty => the two bit sets' 2 * ceil(n/8) bytes, otherwise
    # nonzero).
    assert r['simd_kernel'] in ('scalar', 'sse2', 'avx2'), r
    classes = {b['retention_class'] for b in r['breakdown']}
    assert {'full', 'dirty', 'none'} <= classes, classes
    for b in r['breakdown']:
        if b['retention_class'] == 'none':
            assert b['journal_bytes_peak'] == 0, b
        elif b['retention_class'] == 'dirty':
            # Scenario 1's database holds n = 1000 items; the set's
            # footprint does not depend on the update stream.
            assert b['journal_bytes_peak'] == 2 * ((1000 + 7) // 8), b
        else:
            assert b['journal_bytes_peak'] > 0, b
    assert r['journal_bytes_peak'] > 0, 'journal peak not wired'
    print(f"retention classes {sorted(classes)}, "
          f"summed journal peak {r['journal_bytes_peak']} bytes")


def kernel_independence(vec_path, scalar_path):
    """Work counters of a default-kernel run against a forced-scalar run."""
    vec = load(vec_path)
    sca = load(scalar_path)
    assert sca['simd_kernel'] == 'scalar', sca['simd_kernel']
    # The SIMD apply variants are bit-exact by contract, so every
    # work counter — not just the goldens — must be identical under
    # any kernel.
    for key in ('sim_events', 'cells', 'updates_applied',
                'quiet_report_intervals', 'quiet_skipped_intervals',
                'journal_bytes_peak'):
        assert vec[key] == sca[key], (key, vec[key], sca[key])
    print(f"kernel {vec['simd_kernel']} vs scalar: "
          f"{vec['sim_events']} events, "
          f"{vec['updates_applied']} updates — identical")


def sarif(path):
    """detlint's SARIF report against the 2.1.0 shape."""
    d = load(path)
    assert d['version'] == '2.1.0', d['version']
    assert d['$schema'].endswith('sarif-2.1.0.json'), d['$schema']
    (run,) = d['runs']
    driver = run['tool']['driver']
    assert driver['name'] == 'detlint'
    rules = {r['id'] for r in driver['rules']}
    assert len(rules) == len(driver['rules']), 'duplicate rule ids'
    for res in run['results']:
        assert res['ruleId'] in rules, res['ruleId']
        assert res['level'] in ('error', 'warning', 'note'), res
        assert res['message']['text'], res
        for loc in res['locations']:
            phys = loc['physicalLocation']
            art = phys['artifactLocation']
            assert not art['uri'].startswith('/'), (
                'absolute path leaked: ' + art['uri'])
            assert art['uriBaseId'] == 'SRCROOT', art
            assert phys['region']['startLine'] >= 1, phys
    print(f"SARIF OK: {len(driver['rules'])} rules, "
          f"{len(run['results'])} result(s)")


def sleepers_schema(path):
    """Quiet and server accounting in every run of a sleepers record."""
    r = load(path)
    assert r['runs'], 'no runs recorded'
    for run in r['runs']:
        for key in ('server_seconds', 'quiet_report_intervals',
                    'quiet_skipped_intervals'):
            assert key in run, f'missing {key}'
        assert (run['quiet_skipped_intervals'] <=
                run['quiet_report_intervals']), run
    print(f'{len(r["runs"])} runs carry quiet/server accounting')


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    sub = parser.add_subparsers(dest='command', required=True)
    for name, func in (('phase-schema', phase_schema),
                       ('retention-classes', retention_classes),
                       ('sarif', sarif),
                       ('sleepers-schema', sleepers_schema)):
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument('path')
        p.set_defaults(run=lambda a, f=func: f(a.path))
    p = sub.add_parser('kernel-independence',
                       help=kernel_independence.__doc__)
    p.add_argument('default_kernel_path')
    p.add_argument('scalar_path')
    p.set_defaults(run=lambda a: kernel_independence(a.default_kernel_path,
                                                     a.scalar_path))
    args = parser.parse_args()
    args.run(args)


if __name__ == '__main__':
    main()
