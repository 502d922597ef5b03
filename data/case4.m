function mpc = case4
% Paper Section IV-B worked example (Fig. 3): the classic Grainger &
% Stevenson 4-bus network, shipped with MATPOWER as case4gs.
%
%  * loads {50, 170, 200, 80} MW and the case4gs per-unit reactances;
%  * generators at buses 1 and 4. Linear costs of 20 and 30 $/MWh with
%    Pmax1 = 350 MW reproduce Table II exactly: the pre-perturbation OPF
%    dispatches (350, 150) MW at a cost of $1.15e4;
%  * RATE_A is chosen so that the Table II operating point (flows
%    126.6 / 173.4 / -43.4 / -26.6 MW) is feasible, but close enough to
%    the limits that each of the four Table I/III single-line
%    perturbations forces a re-dispatch;
%  * mpc.dfacts (repo extension) puts D-FACTS devices on all four lines
%    with eta_max = 0.5, so every Table I perturbation can be applied.
%
% Written by io::write_matpower, so it loads back exactly (shortest-
% round-trip number format).
mpc.version = '2';

mpc.baseMVA = 100;

%% bus data: bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin
mpc.bus = [
	1	3	50	0	0	0	1	1	0	0	1	1.06	0.94;
	2	1	170	0	0	0	1	1	0	0	1	1.06	0.94;
	3	1	200	0	0	0	1	1	0	0	1	1.06	0.94;
	4	2	80	0	0	0	1	1	0	0	1	1.06	0.94;
];

%% generator data: bus Pg Qg Qmax Qmin Vg mBase status Pmax Pmin
mpc.gen = [
	1	0	0	0	0	1	100	1	350	0;
	4	0	0	0	0	1	100	1	318	0;
];

%% generator cost data: model startup shutdown n c1 c0
mpc.gencost = [
	2	0	0	2	20	0;
	2	0	0	2	30	0;
];

%% branch data: fbus tbus r x b rateA rateB rateC ratio angle status
mpc.branch = [
	1	2	0	0.0504	0	130	0	0	0	0	1;
	1	3	0	0.0372	0	175	0	0	0	0	1;
	2	4	0	0.0372	0	60	0	0	0	0	1;
	3	4	0	0.0636	0	60	0	0	0	0	1;
];

%% mtdgrid extension: D-FACTS devices as
%% [branch_row min_factor max_factor] (1-based mpc.branch rows)
mpc.dfacts = [
	1	0.5	1.5;
	2	0.5	1.5;
	3	0.5	1.5;
	4	0.5	1.5;
];
