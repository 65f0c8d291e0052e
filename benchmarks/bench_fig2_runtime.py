"""Figure 2(g): runtime (CPU cycles) and memory usage of the variants.

Checks the overhead shape the paper reports: both hardened variants pay
runtime and memory overhead, and sync2's hardened runtime is *extremely*
increased relative to its baseline — the driver of its failure-count
degradation.
"""


def test_fig2_runtime_and_memory(fig2_summaries, output_dir):
    rows = []
    for name, summary in fig2_summaries.items():
        rows.append((name, summary.cycles, summary.ram_bytes))
    by_name = {name: (cycles, ram) for name, cycles, ram in rows}

    for base_name in ("bin_sem2", "sync2"):
        base_cycles, base_ram = by_name[base_name]
        hard_cycles, hard_ram = by_name[f"{base_name}-sumdmr"]
        assert hard_cycles > base_cycles
        assert hard_ram > base_ram

    # sync2's hallmark: an extreme runtime increase.
    sync2_ratio = by_name["sync2-sumdmr"][0] / by_name["sync2"][0]
    assert sync2_ratio > 3.0, sync2_ratio

    lines = ["Figure 2(g): runtime and memory usage",
             f"{'variant':18s} {'cycles':>8s} {'RAM bytes':>10s}"]
    for name, cycles, ram in rows:
        lines.append(f"{name:18s} {cycles:8d} {ram:10d}")
    lines.append(f"\nsync2 hardened/baseline runtime ratio: "
                 f"{sync2_ratio:.2f}x")
    (output_dir / "fig2_runtime.txt").write_text("\n".join(lines) + "\n")
