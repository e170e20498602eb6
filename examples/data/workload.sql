-- Sample workload for dblayout advise. `-- weight:` sets the next statement's
-- importance (e.g. executions per day).

-- weight: 50
SELECT COUNT(*), SUM(ol_price)
FROM orders, order_lines
WHERE o_id = ol_order_id AND o_date >= DATE '2003-01-01';

-- weight: 20
SELECT c_segment, COUNT(*)
FROM customers, orders
WHERE c_id = o_customer_id
GROUP BY c_segment;

-- weight: 10
SELECT p_category, SUM(ol_qty)
FROM order_lines, products
WHERE ol_product_id = p_id
GROUP BY p_category
ORDER BY p_category;

-- weight: 5
SELECT COUNT(*) FROM orders;

-- weight: 5
SELECT COUNT(*) FROM order_lines;

-- weight: 2
UPDATE orders SET o_status = 'SHIPPED' WHERE o_id = 12345;

-- weight: 1
INSERT INTO orders VALUES (2000001, 77, '2003-06-30', 99.50, 'NEW', 'rush order');
