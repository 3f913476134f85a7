#!/usr/bin/env python3
"""Receptive-field reachability: which input tokens can influence which
output tokens after each block.

Without cross-window communication, influence never leaves the window a
token lives in. With shift, shuffle, or messenger exchange it spreads until
every token sees every other; the layer where that first happens is the
interesting number.
"""

import dataclasses

from winmix import connectivity, preset
from winmix.analytics import write_pgm

tiny = preset("swin-linmapper-tiny")

print("14x14 grid, window 7, block schedule of the deep-tiny preset:")
for comm in ("Shift", "Shuffle", "MSG", "None"):
    rep = connectivity(dataclasses.replace(tiny, comm=comm), 14, 14)
    dens = [f"{m.mean():.2f}" for m in rep.layers[:6]]
    print(f"  {comm:8s} first_full={str(rep.first_full):5s} density/block: {dens} ...")

# how one token's influence set grows under shift communication
rep = connectivity(dataclasses.replace(tiny, comm="Shift"), 14, 14)
token = 0
print("\ninfluence set of token (0,0) under Shift, block by block:")
for i, mat in enumerate(rep.layers[:4]):
    rows = mat[token].reshape(14, 14)
    print(f" after block {i + 1}:")
    for r in rows[::2]:
        print("   " + "".join("X" if v else "." for v in r[::2]))

# PGM bitmaps for visual inspection (one file per block), overwritten each run
import pathlib

out = pathlib.Path("connectivity_pgms")
out.mkdir(exist_ok=True)
for i, (label, mat) in enumerate(zip(rep.labels, rep.layers)):
    write_pgm(out / f"{i:02d}_{label}.pgm", mat)
print(f"\nwrote {len(rep.layers)} bitmaps to {out}/")
