"""Declarative results pipeline over campaign documents and the store.

The offline half of the repo's production story: campaign runs persist
content-addressed results and deterministic ``--out`` documents; this
package turns those into consumable artefacts without re-running
anything.

* :mod:`repro.results.tables` — :class:`TableSpec`/:class:`SeriesSpec`
  declarations the experiment modules export, materialised into
  renderer-neutral :class:`Table`/:class:`Series` values;
* :mod:`repro.results.render` — ASCII (byte-identical to the historic
  experiment verbs), GitHub markdown, LaTeX, CSV, HTML and JSON
  renderers;
* :mod:`repro.results.source` — campaign-document loading (schemas
  ``repro-campaign-result/1`` and ``/2``), live store lookups by full
  spec digest, document fingerprints;
* :mod:`repro.results.diff` — digest-keyed cross-campaign diff naming
  the diverging spec parameters, cell-by-cell table comparison, store
  provenance;
* :mod:`repro.results.plots` — matplotlib emitters behind the same
  soft-dependency gate :mod:`repro.vec` uses for numpy.

The CLI surface is ``repro-diag results render|diff|plot``.

Only the dependency-light table/render layer is re-exported here —
``source``/``diff`` import the campaign layer (which itself declares
tables), so they are imported by their full module path.
"""

from .render import (
    FORMATS,
    render_ascii,
    render_csv,
    render_html,
    render_json_tables,
    render_latex,
    render_markdown,
    render_tables,
)
from .tables import Column, Series, SeriesSpec, Table, TableSpec

__all__ = [
    "FORMATS",
    "Column",
    "Series",
    "SeriesSpec",
    "Table",
    "TableSpec",
    "render_ascii",
    "render_csv",
    "render_html",
    "render_json_tables",
    "render_latex",
    "render_markdown",
    "render_tables",
]
