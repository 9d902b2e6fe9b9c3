"""The CSV and SVG writers' output formatted one value at a time, as the
writers once did: the byte reference for SolutionTable.to_csv and for the
polylines of plotting.write_curves_svg."""

from blasius_pinn.plotting import HEIGHT, MARGIN, WIDTH


def csv_reference(table) -> str:
    rows = zip(table.eta, table.f, table.fp, table.fpp, table.residual)
    return "eta,f,fp,fpp,residual\n" + "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)


def polyline_reference(x, curves) -> list[str]:
    """The points attribute of each curve's polyline."""
    x = list(map(float, x))
    ys = [v for _, c in curves for v in c]
    x_lo, x_hi = min(x), max(x)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return MARGIN + (v - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def sy(v):
        return HEIGHT - MARGIN - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    return [" ".join(f"{sx(xv):.2f},{sy(float(yv)):.2f}" for xv, yv in zip(x, c))
            for _, c in curves]
