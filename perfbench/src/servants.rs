//! The server side of every workload: a hand-written echo skeleton, the
//! servant behind the *generated* `Bench::Catalog` skeleton, the block
//! streamer, and the `mix_open` shop. Each servant opens a `servant` span,
//! so the traced run sees application time apart from ORB time.

use crate::spans;
use heidl_rmi::{
    DispatchKind, DispatchOutcome, RemoteObject, RmiError, RmiResult, Skeleton, SkeletonBase,
    StreamBody, StreamServant,
};
use heidl_wire::{Decoder, Encoder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Code generated at build time by the `rust` backend from `idl/bench.idl`.
#[allow(unused_imports, non_upper_case_globals, dead_code, clippy::all)]
pub mod bench {
    include!(concat!(env!("OUT_DIR"), "/bench.rs"));
}

pub const ECHO_TYPE_ID: &str = "IDL:Bench/Echo:1.0";

/// `string echo(in string)`, hand-written like a paper-era skeleton.
pub struct EchoSkel {
    base: SkeletonBase,
}

impl EchoSkel {
    pub fn shared() -> Arc<dyn Skeleton> {
        Arc::new(EchoSkel {
            base: SkeletonBase::new(ECHO_TYPE_ID, DispatchKind::Hash, ["echo"], vec![]),
        })
    }
}

impl Skeleton for EchoSkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        match self.base.find(method) {
            Some(0) => {
                let text = args.get_string()?;
                let _span = spans::span("servant", 0);
                reply.put_string(&text);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

/// The servant behind the generated `CatalogSkel`.
pub struct Catalog;

/// What `Catalog::swap` answers; the client recomputes it to verify.
pub fn swap_expected(
    head: &bench::Clip,
    frames: &[i32],
    statuses: &[i32],
    rates: &[f64],
) -> Vec<f64> {
    let n = frames.len();
    let mut out: Vec<f64> =
        (0..n).map(|i| rates[n - 1 - i] * f64::from(frames[i]) + f64::from(statuses[i])).collect();
    out.push(head.rate);
    out
}

impl RemoteObject for Catalog {
    fn type_id(&self) -> &str {
        bench::Catalog_REPO_ID
    }
}

impl bench::CatalogServant for Catalog {
    fn swap(
        &self,
        head: bench::Clip,
        titles: String,
        frames: Vec<i32>,
        statuses: Vec<i32>,
        rates: Vec<f64>,
    ) -> RmiResult<Vec<f64>> {
        let _span = spans::span("servant", 0);
        if statuses.len() != frames.len() || rates.len() != frames.len() || titles.is_empty() {
            return Err(RmiError::Protocol("swap: columns differ in length".to_owned()));
        }
        Ok(swap_expected(&head, &frames, &statuses, &rates))
    }
}

pub const BLOB_TYPE_ID: &str = "IDL:Bench/Blob:1.0";

/// Streams `total` bytes without materializing them: the producer hands
/// out copies of one seeded block (e12's shape).
pub struct BlockStreamer {
    pub block: Arc<str>,
    pub total: usize,
}

impl StreamServant for BlockStreamer {
    fn type_id(&self) -> &str {
        BLOB_TYPE_ID
    }

    fn open(&self, method: &str, _args: &mut dyn Decoder) -> RmiResult<StreamBody> {
        if method != "pour" {
            return Err(RmiError::UnknownMethod {
                method: method.to_owned(),
                type_id: BLOB_TYPE_ID.to_owned(),
            });
        }
        let block = Arc::clone(&self.block);
        let total = self.total;
        let mut sent = 0usize;
        Ok(StreamBody::from_fn(move |max| {
            if sent >= total {
                return None;
            }
            let _span = spans::span("servant", 0);
            let take = max.min(total - sent).min(block.len());
            sent += take;
            Some(block[..take].to_owned())
        }))
    }
}

pub const SHOP_TYPE_ID: &str = "IDL:Bench/Shop:1.0";
pub const SHOP_METHODS: [&str; 4] = ["echo", "quote", "purchase", "notify"];

/// Execution counters shared by every shop backend, so "exactly once" is
/// checked across the cluster, not per node.
#[derive(Debug, Default)]
pub struct ShopLedger {
    pub purchases: AtomicU64,
    pub notified: AtomicU64,
    pub quotes: AtomicU64,
}

/// What `quote(key)` answers.
pub fn quote_expected(key: i32) -> String {
    format!("quote-{key:02}-{}", i64::from(key) * 7919 + 17)
}

/// What `purchase(name)` answers.
pub fn receipt_expected(name: &str) -> i64 {
    name.bytes().fold(name.len() as i64, |acc, b| acc.wrapping_mul(31).wrapping_add(i64::from(b)))
}

/// The `mix_open` backend: `echo`, `quote` (called `@cached`), `purchase`
/// (called `@exactly_once`) and the oneway `notify`.
pub struct ShopSkel {
    base: SkeletonBase,
    ledger: Arc<ShopLedger>,
}

impl ShopSkel {
    pub fn shared(ledger: Arc<ShopLedger>) -> Arc<dyn Skeleton> {
        Arc::new(ShopSkel {
            base: SkeletonBase::new(SHOP_TYPE_ID, DispatchKind::Hash, SHOP_METHODS, vec![]),
            ledger,
        })
    }
}

impl Skeleton for ShopSkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        let slot = self.base.find(method);
        let _span = spans::span("servant", 0);
        match slot {
            Some(0) => {
                let text = args.get_string()?;
                reply.put_string(&text);
            }
            Some(1) => {
                let key = args.get_long()?;
                self.ledger.quotes.fetch_add(1, Ordering::Relaxed);
                reply.put_string(&quote_expected(key));
            }
            Some(2) => {
                let name = args.get_string()?;
                self.ledger.purchases.fetch_add(1, Ordering::Relaxed);
                reply.put_longlong(receipt_expected(&name));
            }
            Some(3) => {
                let _ = args.get_string()?;
                self.ledger.notified.fetch_add(1, Ordering::Relaxed);
            }
            _ => return self.base.dispatch_parents(method, args, reply),
        }
        Ok(DispatchOutcome::Handled)
    }
}
