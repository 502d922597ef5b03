function mpc = wscc9
% WSCC 9-bus system (MATPOWER case9), an extra scale point for tests and
% examples.
%
%  * topology, loads (90 / 100 / 125 MW at buses 5, 7, 9), per-unit
%    reactances, generator capacities and RATE_A follow MATPOWER case9;
%  * generator costs are linear (15 / 12 / 20 $/MWh) for the DC model;
%  * mpc.dfacts (repo extension) installs D-FACTS devices on three
%    branches (1-4, 3-6, 8-9) with eta_max = 0.5.
%
% Written by io::write_matpower, so it loads back exactly (shortest-
% round-trip number format).
mpc.version = '2';

mpc.baseMVA = 100;

%% bus data: bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin
mpc.bus = [
	1	3	0	0	0	0	1	1	0	0	1	1.06	0.94;
	2	2	0	0	0	0	1	1	0	0	1	1.06	0.94;
	3	2	0	0	0	0	1	1	0	0	1	1.06	0.94;
	4	1	0	0	0	0	1	1	0	0	1	1.06	0.94;
	5	1	90	0	0	0	1	1	0	0	1	1.06	0.94;
	6	1	0	0	0	0	1	1	0	0	1	1.06	0.94;
	7	1	100	0	0	0	1	1	0	0	1	1.06	0.94;
	8	1	0	0	0	0	1	1	0	0	1	1.06	0.94;
	9	1	125	0	0	0	1	1	0	0	1	1.06	0.94;
];

%% generator data: bus Pg Qg Qmax Qmin Vg mBase status Pmax Pmin
mpc.gen = [
	1	0	0	0	0	1	100	1	250	0;
	2	0	0	0	0	1	100	1	300	0;
	3	0	0	0	0	1	100	1	270	0;
];

%% generator cost data: model startup shutdown n c1 c0
mpc.gencost = [
	2	0	0	2	15	0;
	2	0	0	2	12	0;
	2	0	0	2	20	0;
];

%% branch data: fbus tbus r x b rateA rateB rateC ratio angle status
mpc.branch = [
	1	4	0	0.0576	0	250	0	0	0	0	1;
	4	5	0	0.092	0	250	0	0	0	0	1;
	5	6	0	0.17	0	150	0	0	0	0	1;
	3	6	0	0.0586	0	300	0	0	0	0	1;
	6	7	0	0.1008	0	150	0	0	0	0	1;
	7	8	0	0.072	0	250	0	0	0	0	1;
	8	2	0	0.0625	0	250	0	0	0	0	1;
	8	9	0	0.161	0	250	0	0	0	0	1;
	9	4	0	0.085	0	250	0	0	0	0	1;
];

%% mtdgrid extension: D-FACTS devices as
%% [branch_row min_factor max_factor] (1-based mpc.branch rows)
mpc.dfacts = [
	1	0.5	1.5;
	4	0.5	1.5;
	8	0.5	1.5;
];
