# quickstart_filtering.py
# One Gamma information path from simulation to message recovery.
#
# A hidden message X is drawn from a two-atom prior and buried inside a
# gamma process whose conditional law is the Esscher tilt by X.  The
# observer sees only the running path xi_t; the posterior over the atoms
# is available in closed form and concentrates on the true atom as t grows.

import levy_info as li
from levy_info.rng import stream

model = li.make_noise_model("Gamma", (1.0, 1.0))
prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
grid = li.TimeGrid.regular(16.0, 64)

path = li.simulate_information_path(model, prior, grid, stream(2026, 0))
rate = lambda v: li.exponent_derivatives(model, v)[0]

print(f"true message x = {path.message:+.3f}   (signal rate psi0'(x) = {rate(path.message):.3f})")
print()
print(f"{'t':>6} {'xi_t':>9} {'P(X=0)':>8} {'P(X=0.5)':>9} {'post mean':>10} {'rate est':>9}")

posterior = li.posterior_update(prior, model, 0.0, 0.0)
for j, t in enumerate(grid.times):
    if j > 0:
        dxi = path.values[j] - path.values[j - 1]
        posterior = li.posterior_update(posterior, model, dxi, grid.times[j] - grid.times[j - 1])
    if j % 8 == 0:
        yhat = li.prior_expectation(posterior, rate)
        print(f"{t:6.2f} {path.values[j]:9.4f} {posterior.weights[0]:8.4f} "
              f"{posterior.weights[1]:9.4f} {posterior.mean:10.4f} {yhat:9.4f}")

estimate = li.estimate_message(posterior, model, path.values[-1], grid.times[-1])
print()
print(f"point estimate of x from xi_T/T alone: {estimate.i0:+.4f}")
print(f"posterior mean of x:                   {posterior.mean:+.4f}")
