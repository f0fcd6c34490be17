"""Seeded input generator for the molrest benchmark.

Writes, for one input set and seed, the molecule JSON, the trajectory
files the program reads, and ``truth.npz``: the exact lab-frame arrays
and generating rotations the oracle checks the reports against.  The
program only ever sees the JSON and xyz files.

Frames are built as ``C_t + R_t (X_c + d_t)`` for nuclei, with ``X_c``
the input geometry about its nuclear centre of mass, ``R_t`` a
Haar-random rotation (chosen so that every tenth rest orientation the
program reports lies within 1e-3 of the angle pi) and
``d_t`` a 0.03-scale displacement projected so that ``sum M d = 0`` and
``sum M X_c x d = 0``.  With those two conditions the generating
rotation is the exact Eckart solution, so the oracle knows the answer
without running any of the program's code.

Run as ``python3 perfbench/gen.py --inputs SET --seed N --out DIR --root CHECKOUT``.
"""

import argparse
import json
import os
import sys

import numpy as np

N_FRAMES = 1_000
SHORT_FRAMES = 20
CLUSTER_NUCLEI = 20
CLUSTER_ELECTRONS = 6
ELECTRON_MASS = 5.5e-4
DISPLACEMENT = 0.03
NEAR_PI_EVERY = 10

# what each input set writes: the cluster or water molecule, and with
# "traj-" a trajectory and its truth
INPUT_SETS = ("traj-cluster", "traj-water", "cluster")


def cluster_molecule(seed):
    """Synthetic non-collinear 20-nucleus, 6-electron cluster.

    Redraws until nuclei are well separated and the principal moments
    are distinct, so the preparation rotation is unambiguous.
    """
    rng = np.random.default_rng([seed, 1])
    while True:
        masses = rng.uniform(1.0, 20.0, CLUSTER_NUCLEI)
        pos = rng.normal(0.0, 1.5, (CLUSTER_NUCLEI, 3)) + rng.uniform(-3, 3, 3)
        dist = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
        np.fill_diagonal(dist, np.inf)
        centered = pos - masses @ pos / masses.sum()
        moments = np.linalg.eigvalsh(np.einsum("m,mi,mj->ij", masses, centered, centered))
        gaps = np.diff(moments) / moments[-1]
        if dist.min() > 0.4 and gaps.min() > 0.05:
            break
    return {
        "name": f"cluster-{seed}",
        "hbar": 1.0,
        "nuclei": [{"mass": float(m), "position": [float(v) for v in p]}
                   for m, p in zip(masses, pos)],
        "electrons": {"count": CLUSTER_ELECTRONS, "mass": ELECTRON_MASS},
    }


def water_molecule(root):
    with open(os.path.join(root, "tests", "data", "water.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _rodrigues(axes, angles):
    k = np.zeros(axes.shape[:-1] + (3, 3))
    k[..., 0, 1], k[..., 0, 2] = -axes[..., 2], axes[..., 1]
    k[..., 1, 0], k[..., 1, 2] = axes[..., 2], -axes[..., 0]
    k[..., 2, 0], k[..., 2, 1] = -axes[..., 1], axes[..., 0]
    s = np.sin(angles)[..., None, None]
    c = (1.0 - np.cos(angles))[..., None, None]
    return np.eye(3) + s * k + c * (k @ k)


def haar_rotations(rng, n):
    """Haar-random rotations; every NEAR_PI_EVERY-th sits just below pi."""
    quat = rng.normal(size=(n, 4))
    quat /= np.linalg.norm(quat, axis=1, keepdims=True)
    w, xyz = quat[:, 0], quat[:, 1:]
    angles = 2.0 * np.arctan2(np.linalg.norm(xyz, axis=1), w)
    axes = xyz / np.linalg.norm(xyz, axis=1, keepdims=True)
    near = np.arange(n) % NEAR_PI_EVERY == NEAR_PI_EVERY - 1
    angles[near] = np.pi - 10.0 ** rng.uniform(-9.0, -3.0, near.sum())
    return _rodrigues(axes, angles)


def preparation_rotation(masses, x_in):
    """Rotation from the input frame to the principal axes: largest planar
    moment first, the first two axes signed so that their largest
    component is positive, the third their cross product."""
    centered = x_in - masses @ x_in / masses.sum()
    planar = np.einsum("m,mi,mj->ij", masses, centered, centered)
    evals, vecs = np.linalg.eigh(planar)
    vecs = vecs[:, np.argsort(evals)[::-1]]
    for k in range(2):
        if vecs[np.argmax(np.abs(vecs[:, k])), k] < 0.0:
            vecs[:, k] = -vecs[:, k]
    vecs[:, 2] = np.cross(vecs[:, 0], vecs[:, 1])
    return vecs


def eckart_projector(masses, centered):
    """Orthogonal projector onto displacements with zero mass-weighted
    translation and zero Eckart rotation about ``centered``."""
    n = masses.size
    a = np.zeros((6, 3 * n))
    eye = np.eye(3)
    for k in range(3):
        a[k] = (masses[:, None] * eye[k]).ravel()
        # (sum M X x d)_k = sum M (e_k x X) . d
        a[3 + k] = (masses[:, None] * np.cross(eye[k], centered)).ravel()
    return np.eye(3 * n) - a.T @ np.linalg.solve(a @ a.T, a)


def make_trajectory(rng, mol, n_frames):
    """Lab-frame frames plus the rotations that generated them."""
    masses = np.array([nu["mass"] for nu in mol["nuclei"]])
    x_in = np.array([nu["position"] for nu in mol["nuclei"]])
    n_el, m_el = mol["electrons"]["count"], mol["electrons"]["mass"]
    n = masses.size
    x_c = x_in - masses @ x_in / masses.sum()

    # the program reports the rest rotation R_true V, so that is the one
    # drawn Haar-random and pushed towards the seam
    rot = haar_rotations(rng, n_frames) @ preparation_rotation(masses, x_in).T
    proj = eckart_projector(masses, x_c)
    disp = (DISPLACEMENT * rng.normal(size=(n_frames, 3 * n))) @ proj.T
    body = x_c + disp.reshape(n_frames, n, 3)
    com = rng.uniform(-5.0, 5.0, (n_frames, 1, 3))
    boost = rng.normal(0.0, 0.5, (n_frames, 1, 3))
    nuc_pos = com + np.einsum("fij,fmj->fmi", rot, body)
    nuc_mom = masses[:, None] * (boost + rng.normal(0.0, 0.3, (n_frames, n, 3)))
    el_body = rng.normal(0.0, 1.0, (n_frames, n_el, 3))
    el_pos = com + np.einsum("fij,fmj->fmi", rot, el_body)
    el_mom = m_el * boost + rng.normal(0.0, 0.05, (n_frames, n_el, 3))
    return {
        "masses": masses,
        "x_in": x_in,
        "electron_mass": np.float64(m_el),
        "rotation": rot,
        "nuclei_positions": nuc_pos,
        "nuclei_momenta": nuc_mom,
        "electron_positions": el_pos,
        "electron_momenta": el_mom,
    }


def write_xyz(path, traj, n_frames=None):
    """Write frames in the extended-xyz layout the program reads.

    Values go through ``repr`` of Python floats, which round-trips
    exactly, so the oracle's arrays are the numbers the program parses.
    """
    pos = np.concatenate([traj["nuclei_positions"], traj["electron_positions"]], axis=1)
    mom = np.concatenate([traj["nuclei_momenta"], traj["electron_momenta"]], axis=1)
    rows = np.concatenate([pos, mom], axis=2)[:n_frames].tolist()
    n_nuc = traj["masses"].size
    labels = [f"X{mu}" for mu in range(n_nuc)] + ["e"] * (len(rows[0]) - n_nuc)
    with open(path, "w", encoding="utf-8") as fh:
        for idx, frame in enumerate(rows):
            lines = [f"{len(frame)}", f"frame {idx}"]
            lines += [lab + " " + " ".join(map(repr, row)) for lab, row in zip(labels, frame)]
            fh.write("\n".join(lines) + "\n")


def generate(input_set, seed, out, root, n_frames=N_FRAMES):
    """Write the files of ``input_set`` for ``seed`` into ``out``."""
    if input_set not in INPUT_SETS:
        raise ValueError(f"unknown input set {input_set!r}")
    mol = water_molecule(root) if input_set == "traj-water" else cluster_molecule(seed)
    with open(os.path.join(out, "molecule.json"), "w", encoding="utf-8") as fh:
        json.dump(mol, fh)
    if not input_set.startswith("traj-"):
        return
    traj = make_trajectory(np.random.default_rng([seed, 2]), mol, n_frames)
    write_xyz(os.path.join(out, "traj.xyz"), traj)
    write_xyz(os.path.join(out, "short.xyz"), traj, SHORT_FRAMES)
    np.savez(os.path.join(out, "truth.npz"), **traj)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, choices=INPUT_SETS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--root", required=True, help="checkout holding tests/data")
    ns = parser.parse_args(argv)
    generate(ns.inputs, ns.seed, ns.out, ns.root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
