"""The declarative results layer: specs, renderers, cache, plot gate.

Everything here is renderer-neutral plumbing: a TableSpec materialises
into formatted string cells exactly once, every renderer consumes those
same cells, and derived values (rendered strings) memoise under the
document fingerprint.  The campaign-document end of the pipeline is
covered in test_results_documents.py.
"""

import pytest

from repro.results import (
    FORMATS,
    Column,
    Series,
    SeriesSpec,
    Table,
    TableSpec,
    render_ascii,
    render_csv,
    render_json_tables,
    render_latex,
    render_markdown,
    render_tables,
)
from repro.results.plots import (
    MATPLOTLIB_AVAILABLE,
    PlotUnavailableError,
    require_matplotlib,
)

SPEC = TableSpec(
    name="demo",
    title=lambda rows: f"{len(rows)} row(s)",
    columns=(
        Column("name", lambda r: r[0]),
        Column("value", lambda r: r[1]),
    ),
    footer=lambda rows: (f"total: {sum(r[1] for r in rows)}",),
)


class TestTableSpec:
    def test_build_formats_cells_once(self):
        table = SPEC.build([("a", 0.5), ("b", -0.0)])
        assert table.title == "2 row(s)"
        assert table.headers == ("name", "value")
        assert table.rows == (("a", "0.5"), ("b", "0"))
        assert table.footer == ("total: 0.5",)

    def test_default_rows_is_identity(self):
        table = TableSpec(name="t", columns=(Column("x", lambda r: r),)) \
            .build([1, 2])
        assert table.rows == (("1",), ("2",))

    def test_static_title_and_no_footer(self):
        spec = TableSpec(name="t", title="fixed",
                         columns=(Column("x", lambda r: r),))
        table = spec.build([1])
        assert table.title == "fixed"
        assert table.footer == ()

    def test_table_roundtrips_through_dict(self):
        table = SPEC.build([("a", 1), ("b|c", 2)])
        assert Table.from_dict(table.to_dict()) == table

    def test_series_spec_builds_and_roundtrips(self):
        spec = SeriesSpec(
            name="s", x_label="x", y_label="y", title="curves",
            curves=lambda v: {"up": [(1, 1), (2, 4)], "down": [(1, -1)]})
        series = spec.build(None)
        assert series.curves == (("up", ((1.0, 1.0), (2.0, 4.0))),
                                 ("down", ((1.0, -1.0),)))
        assert Series.from_dict(series.to_dict()) == series


class TestRenderers:
    def test_ascii_matches_historic_render_table(self):
        from repro.analysis.reporting import render_table
        table = SPEC.build([("a", 1), ("b", 2)])
        expected = render_table(table.headers, table.rows,
                                title=table.title) + "\ntotal: 3"
        assert render_ascii(table) == expected

    def test_markdown_pipe_table_with_escapes(self):
        table = SPEC.build([("a|b", 1)])
        out = render_markdown(table)
        assert out.splitlines()[0] == "### 1 row(s)"
        assert "| a\\|b | 1 |" in out
        assert "*total: 1*" in out

    def test_latex_environment_with_escapes(self):
        table = TableSpec(
            name="t", title="95% CI",
            columns=(Column("p_gb", lambda r: r),)).build(["a&b"])
        out = render_latex(table)
        assert out.startswith("\\begin{table}[ht]")
        assert out.endswith("\\end{table}")
        assert "\\caption{95\\% CI}" in out
        assert "p\\_gb \\\\" in out
        assert "a\\&b \\\\" in out

    def test_csv_quotes_and_comments(self):
        table = SPEC.build([("a,b", 1)])
        out = render_csv(table)
        assert out.splitlines()[0] == "# 1 row(s)"
        assert '"a,b",1' in out
        assert out.splitlines()[-1] == "# total: 1"
        assert not out.endswith("\n")

    def test_json_is_sorted_and_schema_tagged(self):
        out = render_json_tables([SPEC.build([("a", 1)])])
        import json
        doc = json.loads(out)
        assert doc["schema"] == "repro-results/1"
        assert doc["tables"][0]["rows"] == [["a", "1"]]
        assert out == json.dumps(doc, sort_keys=True, indent=2)

    def test_render_tables_dispatch_covers_all_formats(self):
        tables = [SPEC.build([("a", 1)]), SPEC.build([("b", 2)])]
        for fmt in FORMATS:
            out = render_tables(tables, fmt)
            assert "a" in out and "1" in out
        assert render_tables(tables, "ascii").count("+--") > 2

    def test_render_tables_unknown_format(self):
        # "html" used to be the canonical unknown format; it is real now.
        with pytest.raises(ValueError, match="unknown format"):
            render_tables([], "pdf")


class TestPlotGate:
    def test_gate_matches_availability(self):
        if MATPLOTLIB_AVAILABLE:  # pragma: no cover - CI soft-dep job
            require_matplotlib()
        else:
            with pytest.raises(PlotUnavailableError,
                               match="requires matplotlib"):
                require_matplotlib()

    @pytest.mark.skipif(not MATPLOTLIB_AVAILABLE,
                        reason="matplotlib not installed")
    def test_emit_plots_writes_files(self, tmp_path):  # pragma: no cover
        from repro.results.plots import emit_plots
        series = Series(name="s", x_label="x", y_label="y",
                        curves=(("c", ((1.0, 1.0), (2.0, 4.0))),))
        paths = emit_plots([series], str(tmp_path))
        assert [p.endswith("s.png") for p in paths] == [True]
