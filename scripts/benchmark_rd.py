#!/usr/bin/env python3
"""Benchmark a model zoo on a directory of images and emit the RD report.

Writes rd_points.csv (per image), rd_curves.csv (averaged) and
bd_rate.csv (vs the chosen anchor) under --out.  External codec points
(JPEG/BPG or published curves) can be joined in via --external CSVs with
columns codec,image,bpp,psnr_db[,msssim][,quality].
"""

import argparse
from pathlib import Path

from c2f.evaluation import emit_rd_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--images", required=True, help="directory of PNG/PPM images")
    parser.add_argument("--models", nargs="+", default=[], help="weight files")
    parser.add_argument("--external", nargs="*", default=[],
                        help="external RD-point CSVs to join")
    parser.add_argument("--anchor", default="c2f")
    parser.add_argument("--dataset", default="dataset")
    parser.add_argument("--lo", type=float, default=0.4)
    parser.add_argument("--hi", type=float, default=1.15)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    images = sorted(p for p in Path(args.images).iterdir()
                    if p.suffix.lower() in (".png", ".ppm"))
    result = emit_rd_report(
        images, args.models, args.out, external_csvs=args.external,
        anchor=args.anchor, dataset=args.dataset,
        bpp_range=(args.lo, args.hi))
    print(f"wrote {args.out}/rd_points.csv, rd_curves.csv, bd_rate.csv")
    for row in result["bd"]:
        print(f"  BD-rate {row[0]} vs {args.anchor}: {row[4]}%")


if __name__ == "__main__":
    main()
