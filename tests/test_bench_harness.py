"""Unit tests for the benchmark harness plumbing (ResultTable)."""

import pytest

from repro.bench.harness import ResultTable


class TestResultTable:
    def make(self):
        table = ResultTable(title="T", columns=("k", "a", "b"), note="n")
        table.add_row("x", 1, 2.5)
        table.add_row("y", 3, 4.0)
        return table

    def test_add_row_validates_width(self):
        table = ResultTable(title="T", columns=("k", "v"))
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_column_access(self):
        table = self.make()
        assert table.column("a") == [1, 3]
        assert table.column("k") == ["x", "y"]

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            self.make().column("zzz")

    def test_as_dicts(self):
        assert self.make().as_dicts()[0] == {"k": "x", "a": 1, "b": 2.5}

    def test_to_text_contains_everything(self):
        rendered = self.make().to_text()
        assert "T" in rendered
        assert "2.50" in rendered  # float formatting
        assert "note: n" in rendered

    def test_to_text_alignment(self):
        lines = self.make().to_text().splitlines()
        header = lines[2]
        assert header.startswith("k")

    def test_to_chart_renders_bars(self):
        chart = self.make().to_chart(width=10)
        assert "#" in chart

    def test_chart_on_empty_table_falls_back(self):
        table = ResultTable(title="E", columns=("k", "v"))
        assert table.to_chart() == table.to_text()

    def test_str_is_text(self):
        table = self.make()
        assert str(table) == table.to_text()

    def test_zero_peak_chart(self):
        table = ResultTable(title="Z", columns=("k", "v"))
        table.add_row("x", 0)
        assert "|" in table.to_chart()


class TestExperimentTables:
    """Smoke + shape tests for every exhibit generator, on small inputs."""

    def test_figure3(self):
        from repro.bench.models import figure3_table

        table = figure3_table(count=100, sample_every=50)
        assert table.column("n")[0] == 1
        actual = table.column("actual bits")
        estimated = table.column("estimated bits")
        assert all(abs(a - e) <= 2 for a, e in zip(actual, estimated))

    def test_figure4_shape(self):
        from repro.bench.models import figure4_table

        table = figure4_table(fanouts=[5, 50])
        growth = {
            name: table.column(name)[-1] - table.column(name)[0]
            for name in ("Prefix-1", "Prefix-2", "Prime")
        }
        assert growth["Prime"] < growth["Prefix-2"] < growth["Prefix-1"]

    def test_figure5_shape(self):
        from repro.bench.models import figure5_table

        table = figure5_table(depths=[0, 5, 10])
        prime = table.column("Prime")
        assert prime[0] < prime[1] < prime[2]
        assert len(set(table.column("Prefix-1"))) == 1

    def test_table1_counts(self):
        from repro.bench.spaces import table1_table

        table = table1_table()
        assert table.column("max # of nodes") == [
            41, 125, 340, 1110, 2495, 2686, 4834, 6636, 10052,
        ]

    def test_figure13_optimizations_reduce_size(self):
        from repro.bench.spaces import figure13_table

        table = figure13_table(datasets=("D3", "D5"))
        for row in table.as_dicts():
            assert row["Opt3"] <= row["Opt2"]
            assert row["Opt2"] <= row["Original"]

    def test_figure14_shape(self):
        from repro.bench.spaces import figure14_table

        table = figure14_table(datasets=("D4", "D7"))
        by_name = {row["dataset"]: row for row in table.as_dicts()}
        # the paper's two headline cases: prime wins the wide D4,
        # prefix wins the deep D7
        assert by_name["D4"]["Prime"] < by_name["D4"]["Prefix-2"]
        assert by_name["D7"]["Prefix-2"] < by_name["D7"]["Prime"]
        # interval is the most compact on the deep dataset (its size depends
        # only on N; on the depth-2 D4 the prime scheme actually undercuts it)
        assert by_name["D7"]["Interval"] <= by_name["D7"]["Prime"]
        assert by_name["D7"]["Interval"] <= by_name["D7"]["Prefix-2"]

    def test_figure16_shape(self):
        from repro.bench.updates import figure16_table

        table = figure16_table(sizes=[1000, 3000])
        assert table.column("prime") == [2, 2]
        assert table.column("prefix-2") == [1, 1]
        interval = table.column("interval")
        assert interval[0] >= 900 and interval[1] >= interval[0]

    def test_figure17_shape(self):
        from repro.bench.updates import figure17_table

        table = figure17_table(sizes=[1000, 3000])
        for row in table.as_dicts():
            assert row["interval"] >= row["# nodes"] * 0.5
            assert row["prime"] < row["interval"]
            assert row["prefix-2"] < row["interval"]

    def test_figure18_shape(self):
        from repro.bench.updates import figure18_table

        table = figure18_table()
        assert len(table.rows) == 5
        for row in table.as_dicts():
            # prime's SC-grouped cost sits far below full relabeling
            assert row["prime"] * 3 < row["interval"]
            assert row["prime"] * 3 < row["prefix-2"]

    def test_table2_and_figure15_small_corpus(self):
        from repro.bench.response import figure15_table, table2_table, build_query_corpus

        corpus = build_query_corpus(plays=3, replicate=2, seed=42)
        counts = table2_table(corpus)
        assert all(isinstance(v, int) for v in counts.column("# of nodes retrieved"))
        assert counts.column("# of nodes retrieved")[-1] > 0  # Q9 retrieves plenty
        timing = figure15_table(corpus, repeats=1)
        for scheme in ("Interval", "Prime", "Prefix-2"):
            assert all(t >= 0 for t in timing.column(scheme))


# Counts observed at the defaults; the shared churn workload must not move them.
PINNED_COUNTS = {
    "durability_table": {
        "fsyncs": [121, 16, 1],
        "wal KiB": [2.8, 2.8, 2.8],
        "replayed": [120, 120, 120],
    },
    "resilience_table": {
        "injected": [0, 7, 18, 39, 27],
        "retries": [0, 7, 18, 39, 26],
        "trips": [0, 0, 0, 0, 1],
        "degraded ops": [0, 0, 0, 0, 91],
    },
    "compaction_table": {
        "snapshot KiB": [38.4, 33.4],
        "wal B/op": [74.6, 24.0],
    },
}


class TestCountsOnlyExhibits:
    """The systems exhibits report counts, so a rebuild reproduces them."""

    @pytest.mark.parametrize("builder", sorted(PINNED_COUNTS))
    def test_rebuild_is_identical_clean_and_pinned(self, builder):
        import repro.bench

        build = getattr(repro.bench, builder)
        table = build()
        assert build().to_text() == table.to_text()
        for row in table.rows:
            assert not {"NO", "VIOLATED"} & {str(cell) for cell in row}, row
        assert set(table.column("identical")) == {"yes"}
        for column, expected in PINNED_COUNTS[builder].items():
            assert table.column(column) == expected, column
