#!/usr/bin/env python
"""Load balancing with capability adaptivity (§4.3 + conclusion).

A cluster serves hot simulation objects.  One machine ends up carrying
all the load while a machine on the clients' own LAN idles.  The load
balancer notices the high-water mark, migrates the hottest object, and —
because the object lands on the clients' LAN — the authentication
capability silently stops applying and every request gets faster *and*
cheaper.  The paper's conclusion, measured.

Run:  python examples/load_balancing.py
"""

from repro import (
    ORB,
    AuthenticationCapability,
    LoadBalancer,
    Principal,
)
from repro.cluster import SyntheticWorkload, build_cluster
from repro.cluster.node import WorkUnit
from repro.simnet import ETHERNET_10, NetworkSimulator, Topology, WAN_T3


def build_world():
    topo = Topology()
    main_site = topo.add_site("datacenter")
    edge_site = topo.add_site("branch-office")
    dc_lan = topo.add_lan("dc-lan", main_site, ETHERNET_10)
    edge_lan = topo.add_lan("edge-lan", edge_site, ETHERNET_10)
    topo.connect(dc_lan, edge_lan, WAN_T3)
    topo.add_machine("dc-server", dc_lan)
    topo.add_machine("edge-server", edge_lan)
    topo.add_machine("edge-client", edge_lan)
    sim = NetworkSimulator(topo, keep_records=0)
    return sim, ORB(simulator=sim)


def run(balanced: bool) -> tuple:
    sim, orb = build_world()
    dc, edge = build_cluster(orb, ["dc-server", "edge-server"])
    client_ctx = orb.context("client", machine="edge-client")

    # Clients authenticate when off the serving LAN (the Figure 3 rule).
    principal = Principal("branch", "corp")
    key = dc.context.keystore.generate(principal)
    client_ctx.keystore.install(principal, key)
    edge.context.keystore.install(principal, key)

    oref = dc.context.export(
        WorkUnit("hot"),
        glue_stacks=[[AuthenticationCapability.for_principal(principal)]])
    gp = client_ctx.bind(oref)

    workload = SyntheticWorkload(seed=11, n_requests=150,
                                 object_names=["hot"],
                                 payload_bytes=8192,
                                 mean_think_seconds=0.0)

    protocols = []

    def remember_protocol():
        protocols.append(gp.describe_selection())

    if balanced:
        balancer = LoadBalancer([dc.context, edge.context],
                                high_water=0.6, low_water=0.5)

        def rebalance():
            # Pressure proxy: sustained request volume marks the context
            # hot (pure network-bound load keeps busy-fraction low).
            dc.context.monitor.busy_fraction.value = max(
                dc.context.monitor.busy_fraction.value,
                min(dc.context.monitor.total_requests / 40.0, 0.95))
            events = balancer.rebalance_once()
            remember_protocol()
            return events

        result = workload.run([{"hot": gp}], sim,
                              rebalance_every=25, rebalance=rebalance)
    else:
        result = workload.run([{"hot": gp}], sim)
    remember_protocol()
    orb.shutdown()
    return result, protocols


def main() -> None:
    static, static_protocols = run(balanced=False)
    balanced, balanced_protocols = run(balanced=True)

    print("placement   mean-latency   p95-latency   makespan  migrations")
    for name, r in (("static", static), ("balanced", balanced)):
        print(f"{name:>9}  {r.mean_latency * 1e3:>10.2f} ms"
              f"  {r.latency_percentile(0.95) * 1e3:>9.2f} ms"
              f"  {r.makespan:>7.3f} s  {r.migrations:>9}")

    print("\nprotocol selected by the client:")
    print("  static   :", " -> ".join(dict.fromkeys(static_protocols)))
    print("  balanced :", " -> ".join(dict.fromkeys(balanced_protocols)))
    print("\nThe migration moved the object onto the client's LAN, so the"
          "\nauthentication capability stopped applying (glue -> plain"
          "\nprotocol) and latency dropped — adaptivity + load balancing.")


if __name__ == "__main__":
    main()
