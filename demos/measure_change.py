# measure_change.py
# Two faces of exponential reweighting.
#
# 1. Tilting the model: a Gamma model tilted by lambda is again Gamma
#    with rescaled parameters, so sampling from the tilted model and
#    reweighting fiducial samples must give the same moments.
# 2. Tilting the measure by the message: under the weight
#    exp(-psi0(X) t + X xi_t), the path decouples from the message and
#    behaves like noise with no message at all -- the joint weighted
#    characteristic function factorizes into (path factor) x (prior factor).

import levy_info as li

model = li.make_noise_model("Gamma", (1.0, 1.0))

# --- 1. tilted simulation vs importance-weighted fiducial sampling ----------
lam, t = 0.5, 1.0
tilted = li.esscher_transform(model, lam)
print(f"Gamma(m=1, kappa=1) tilted by lambda={lam} -> "
      f"Gamma(m={tilted.params[0]:g}, kappa={tilted.params[1]:g})")
study = li.esscher_consistency_study(model, lam, t, 20_000, seed=99)
print(f"{'moment':<10} {'tilted sim':>11} {'reweighted':>11} {'z':>6}")
for row in study.rows:
    print(f"{row.quantity:<10} {row.estimate:11.5f} {row.reference:11.5f} "
          f"{row.z:6.2f}")
print(study.summary())
print()

# --- 2. factorization of the weighted joint characteristic function ---------
prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
print("weighted joint cf vs (path factor) x (prior factor), t = 1:")
print(f"{'alpha':>6} {'beta':>6} {'max |z|':>8}  verdict")
alphas, betas = (0.3, 0.6, 0.9), (0.2, 0.5, 0.8)
rep = li.factorization_study(model, prior, [1j * a for a in alphas],
                             [1j * b for b in betas], 1.0, 20_000, seed=100)
rows = {row.quantity: row for row in rep.rows}
for a in alphas:
    for b in betas:
        key = f"alpha={a:g}i,beta={b:g}i"
        worst = max(abs(rows[f"cf_{part}[{key}]"].z) for part in ("re", "im"))
        print(f"{a:6.1f} {b:6.1f} {worst:8.2f}  "
              f"{'ok' if worst <= rep.threshold else 'FAILED'}")
print(rep.summary())
